package community

import (
	"fmt"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Node is one community member's node manager (the Determina Node Manager
// analog): it applies the manager's directives to its application
// instances, runs its own workload, streams observations and failure
// notifications back, and contributes its share of the distributed
// learning.
type Node struct {
	ID    string       // stable identity; all community state is keyed by it
	Image *image.Image // the protected binary this node runs

	// RecordFailures makes the node seal every failing execution into a
	// recording of its inputs and outcome (replay.Seal) and ship it to
	// the manager (MsgRecording), enabling the manager's replay fast path.
	RecordFailures bool

	// Obs, when set, traces this node's pipeline stages: node.execute
	// (the VM run), detect (failure detection to report assembly),
	// record.seal (recording sealing), and node.sync (the upstream round
	// trip). Nil disables tracing.
	Obs *obs.Tracer

	up  client // the connection upstream and the retry loop (see EnableResilience)
	dir Directives

	engine   *daikon.Engine
	maxSteps uint64
	// memo answers eligible executions from a simulated soak's cohort
	// (nil: every execution runs for real).
	memo *execMemo
}

// NewNode creates a node manager speaking to the central manager over
// conn.
func NewNode(id string, img *image.Image, conn Conn) *Node {
	return &Node{ID: id, Image: img, up: client{role: "node", id: id, conn: conn}, engine: daikon.NewEngine()}
}

// EnableResilience arms the retry policy. Without it a round trip is one
// attempt with no receive deadline. With it, every receive runs under the
// policy's timeout and a failed round trip is retried with exponential
// backoff and seeded jitter, on two budgets:
//
//   - A receive that times out after a successful send resyncs in place:
//     the node sends a Hello on the same connection, where the slow reply
//     may still arrive. These retries draw on the policy's TimeoutAttempts.
//   - A send error, a dead wire or a failed re-dial reconnects: the node
//     re-dials a fresh connection (redial; nil retries in place) and
//     re-registers with a Hello, so its registration and directive cache
//     survive the reconnect. These retries draw on MaxAttempts.
//
// Non-idempotent requests (reports, batches, recordings, learning uploads)
// are never re-sent once a send has succeeded — the peer may already have
// applied them — so community counts stay exact at the cost of
// at-most-once delivery under faults: every later attempt is a Hello
// resync. reg (nil ok) receives the node.retries and node.reconnects
// counters.
func (n *Node) EnableResilience(p *RetryPolicy, redial func() (Conn, error), reg *obs.Registry) {
	n.up.arm(p, redial, reg.Counter("node.retries"), reg.Counter("node.reconnects"))
}

// Connect registers with the manager and fetches initial directives.
func (n *Node) Connect() error { return n.Sync() }

// Attach re-homes the node onto a replacement transport — a sibling
// aggregator after its own crashed, or the same manager after a network
// drop — and re-registers. The node keeps its identity, its locally
// inferred learning state, and its last directives; everything durable on
// the community side (learning shard, repair assignment, quarantine
// status) is keyed by node ID at the manager, so a re-attached node
// resumes exactly where it left off no matter which tier it lands on.
func (n *Node) Attach(conn Conn) error {
	n.up.attach(conn)
	return n.Connect()
}

// roundTrip sends a message and applies the directives that come back. A
// Hello may be sent again; anything else is delivered at most once (see
// client.roundTrip).
func (n *Node) roundTrip(env Envelope) error {
	sp := n.Obs.Start("node.sync")
	defer sp.Finish()
	return n.up.roundTrip(sp, env, env.Kind == MsgHello, n.accept)
}

// accept applies one reply. The node keeps its newest directives: after a
// re-attach or a reconnect it may land on an aggregator whose cache has not
// seen it since the last flush, and trading installed patches for that
// cache miss's empty set would reopen the protection window. The node's
// reports keep carrying the kept sequence, so the manager still credits
// them correctly.
func (n *Node) accept(reply Envelope) error {
	switch reply.Kind {
	case MsgDirectives:
		v, err := decodePayload(MsgDirectives, reply.Payload)
		if err != nil {
			return err
		}
		if dir := v.(*Directives); dir.Seq >= n.dir.Seq {
			n.dir = *dir
		}
		return nil
	case MsgAck:
		return nil
	}
	return fmt.Errorf("community: unexpected reply %v", reply.Kind)
}

// Directives returns the node's current instruction set (for tests).
func (n *Node) Directives() Directives { return n.dir }

// Sync pulls the manager's current directives.
func (n *Node) Sync() error {
	env, err := NewEnvelope(MsgHello, Hello{NodeID: n.ID})
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// compile turns the manager's declarative patch specs into local
// execution-environment patches — the node-side analog of compiling the
// generated C snippets (§3.2).
func (n *Node) compile() ([]*vm.Patch, []*correlate.CheckSet) {
	var patches []*vm.Patch

	byFailure := map[string][]correlate.Candidate{}
	for i := range n.dir.Checks {
		spec := &n.dir.Checks[i]
		inv := spec.Invariant
		byFailure[spec.FailureID] = append(byFailure[spec.FailureID],
			correlate.Candidate{Inv: &inv})
	}
	var sets []*correlate.CheckSet
	for fid, cands := range byFailure {
		cs := correlate.BuildCheckSet(fid, cands)
		cs.StartRun()
		sets = append(sets, cs)
		patches = append(patches, cs.Patches...)
	}

	for i := range n.dir.Repairs {
		spec := &n.dir.Repairs[i]
		patches = append(patches, spec.Repair().BuildPatches(spec.FailureID)...)
	}
	return patches, sets
}

// runLocal executes the application on one input under the current
// directives and assembles the run report; if the node records failures
// and the run failed, the sealed recording's wire form is returned too.
func (n *Node) runLocal(input []byte) (vm.RunResult, RunReport, []byte, error) {
	patches, sets := n.compile()

	// The node runs the full detector set — the same configuration
	// sealRecording claims (replay.AllMonitors), so the manager's replays
	// and vets reproduce the node's detections bit for bit.
	plugins, _, _ := replay.AllMonitors().Plugins()

	var rec *trace.Recorder
	if n.dir.LearnHi > n.dir.LearnLo {
		lo, hi := n.dir.LearnLo, n.dir.LearnHi
		rec = trace.NewRecorder(n.engine)
		rec.Filter = func(pc uint32) bool { return pc >= lo && pc < hi }
		plugins = append(plugins, rec)
	}

	machine, err := vm.New(vm.Config{
		Image:    n.Image,
		Plugins:  plugins,
		Patches:  patches,
		Input:    input,
		MaxSteps: n.maxSteps,
	})
	if err != nil {
		return vm.RunResult{}, RunReport{}, nil, err
	}
	esp := n.Obs.Start("node.execute")
	res := machine.Run()
	esp.Finish()

	if rec != nil {
		if res.Outcome == vm.OutcomeExit && res.ExitCode == 0 {
			rec.CommitRun()
		} else {
			rec.DiscardRun()
		}
	}

	rep := RunReport{
		NodeID:   n.ID,
		Seq:      n.dir.Seq,
		Outcome:  uint8(res.Outcome),
		ExitCode: res.ExitCode,
	}
	if res.Failure != nil {
		// The monitor fired during the run; the detect span covers turning
		// that detection into the wire-form failure notification.
		dsp := n.Obs.Start("detect")
		rep.Failure = &FailureInfo{
			PC:      res.Failure.PC,
			Monitor: res.Failure.Monitor,
			Kind:    res.Failure.Kind,
			Target:  res.Failure.Target,
			Stack:   res.Failure.Stack,
		}
		dsp.Finish()
	}
	for _, cs := range sets {
		rep.Observations = append(rep.Observations, cs.DrainRun()...)
	}

	var raw []byte
	if n.RecordFailures && res.Failure != nil {
		rsp := n.Obs.Start("record.seal")
		raw, err = n.sealRecording(input, res)
		rsp.Finish()
		if err != nil {
			return res, rep, nil, err
		}
	}
	return res, rep, raw, nil
}

// RunOnce executes the application on one input under the current
// directives and reports the result to the manager. The updated
// directives in the reply take effect for the next run.
func (n *Node) RunOnce(input []byte) (vm.RunResult, error) {
	// Refresh directives first: a presentation happens only after the
	// manager's actions from the previous one have been applied (the Red
	// Team exercise protocol, §4.3.1).
	if err := n.Sync(); err != nil {
		return vm.RunResult{}, err
	}
	res, rep, rawRec, err := n.memo.run(n, input)
	if err != nil {
		return res, err
	}
	env, err := NewEnvelope(MsgRunReport, rep)
	if err != nil {
		return res, err
	}
	if err := n.roundTrip(env); err != nil {
		return res, err
	}
	if rawRec != nil {
		env, err := NewEnvelope(MsgRecording, RecordingUpload{NodeID: n.ID, Recording: rawRec})
		if err != nil {
			return res, err
		}
		if err := n.roundTrip(env); err != nil {
			return res, err
		}
	}
	return res, nil
}

// RunBatch executes the application on every input under one directive
// snapshot and ships the accumulated reports and failing-run recordings
// as a single MsgBatch — one round trip for the whole batch instead of
// two per run. The manager's reply (its post-batch directives) takes
// effect for the next batch. This is how a large community keeps manager
// load O(batches) rather than O(executions).
func (n *Node) RunBatch(inputs [][]byte) ([]vm.RunResult, error) {
	if err := n.Sync(); err != nil {
		return nil, err
	}
	batch := Batch{NodeID: n.ID}
	results := make([]vm.RunResult, 0, len(inputs))
	for _, input := range inputs {
		res, rep, rawRec, err := n.memo.run(n, input)
		if err != nil {
			return results, err
		}
		results = append(results, res)
		batch.Reports = append(batch.Reports, rep)
		if rawRec != nil {
			batch.Recordings = append(batch.Recordings, rawRec)
		}
	}
	env, err := NewEnvelope(MsgBatch, batch)
	if err != nil {
		return results, err
	}
	return results, n.roundTrip(env)
}

// sealRecording seals a failing run — including the repair patches the
// node was running under, so the manager replays the same machine — and
// returns its wire form for a MsgRecording or MsgBatch upload.
func (n *Node) sealRecording(input []byte, res vm.RunResult) ([]byte, error) {
	rec := replay.Seal(
		fmt.Sprintf("%s/seq%d", n.ID, n.dir.Seq),
		n.Image, input, n.dir.Repairs, replay.AllMonitors(), n.maxSteps, res,
	)
	return rec.Marshal()
}

// UploadLearning finalizes the node's locally inferred invariants and
// uploads them to the manager (§3.1: invariants only, never trace data).
func (n *Node) UploadLearning() error {
	db := n.engine.Finalize(daikon.Options{})
	raw, err := db.Marshal()
	if err != nil {
		return err
	}
	env, err := NewEnvelope(MsgLearnUpload, LearnUpload{NodeID: n.ID, DB: raw})
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// Close releases the node's connection.
func (n *Node) Close() error { return n.up.close() }
