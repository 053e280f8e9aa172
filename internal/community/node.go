package community

import (
	"fmt"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/repair"
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

	// RecordFailures makes the node capture every execution as a
	// copy-on-write recording and ship failing ones to the manager
	// (MsgRecording), enabling the manager's replay fast path.
	RecordFailures bool
	// SnapshotInterval tunes the recording snapshot cadence;
	// 0 selects replay.DefaultSnapshotInterval.
	SnapshotInterval uint64

	// Obs, when set, traces this node's pipeline stages: node.execute
	// (the VM run), detect (failure detection to report assembly),
	// record.seal (tape sealing), and node.sync (the upstream round
	// trip). Nil disables tracing.
	Obs *obs.Tracer

	conn Conn
	dir  Directives

	// Resilience (nil rt = the legacy fail-fast path, byte-identical to
	// pre-chaos behavior). See EnableResilience.
	rt     *retrier
	redial func() (Conn, error)
	token  uint64

	cRetries    *obs.Counter // node.retries
	cReconnects *obs.Counter // node.reconnects

	engine   *daikon.Engine
	maxSteps uint64
	// memo answers eligible executions from a simulated soak's cohort
	// (nil: every execution runs for real).
	memo *execMemo
}

// NewNode creates a node manager speaking to the central manager over
// conn.
func NewNode(id string, img *image.Image, conn Conn) *Node {
	return &Node{ID: id, Image: img, conn: conn, engine: daikon.NewEngine()}
}

// EnableResilience arms the retry/backoff/reconnect path. Every round trip
// runs under the policy's receive timeout and is retried with exponential
// backoff and seeded jitter, on two budgets (see roundTripResilient):
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
	n.rt = newRetrier(p, n.ID)
	n.redial = redial
	n.cRetries = reg.Counter("node.retries")
	n.cReconnects = reg.Counter("node.reconnects")
	n.applyRecvTimeout()
}

// applyRecvTimeout pushes the policy's receive deadline onto the current
// connection, when both exist.
func (n *Node) applyRecvTimeout() {
	if n.rt == nil || n.conn == nil {
		return
	}
	if rt, ok := n.conn.(RecvTimeouter); ok {
		rt.SetRecvTimeout(n.rt.pol.RecvTimeout)
	}
}

// nextToken stamps a fresh request token (resilient path only; a node's
// round trips are serial, so no lock is needed).
func (n *Node) nextToken() uint64 {
	n.token++
	return n.token
}

// Connect registers with the manager and fetches initial directives.
func (n *Node) Connect() error {
	env, err := helloEnvelope(n.ID)
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// Attach re-homes the node onto a replacement transport — a sibling
// aggregator after its own crashed, or the same manager after a network
// drop — and re-registers. The node keeps its identity, its locally
// inferred learning state, and its last directives; everything durable on
// the community side (learning shard, repair assignment, quarantine
// status) is keyed by node ID at the manager, so a re-attached node
// resumes exactly where it left off no matter which tier it lands on.
func (n *Node) Attach(conn Conn) error {
	if n.conn != nil {
		_ = n.conn.Close()
	}
	n.conn = conn
	n.applyRecvTimeout()
	return n.Connect()
}

// roundTrip sends a message and applies the directives that come back.
func (n *Node) roundTrip(env Envelope) error {
	sp := n.Obs.Start("node.sync")
	defer sp.Finish()
	if n.rt == nil {
		_, err := n.roundTripOnce(sp, env)
		return err
	}
	return n.roundTripResilient(sp, env)
}

// roundTripOnce is one send/receive exchange. sent reports whether the
// send itself succeeded — the retry loop must know, because a request that
// may have reached the peer must not be re-sent unless it is idempotent.
func (n *Node) roundTripOnce(sp *obs.Span, env Envelope) (sent bool, err error) {
	var sendErr error
	sp.BlockFor("upstream", func() { sendErr = n.conn.Send(env) })
	if sendErr != nil {
		return false, sendErr
	}
	var reply Envelope
	var recvErr error
	for {
		sp.BlockFor("upstream", func() { reply, recvErr = n.conn.Recv() })
		if recvErr != nil {
			return true, recvErr
		}
		if n.rt == nil || reply.Token == env.Token {
			break
		}
		// A reply carrying a stale token is the stray answer to a
		// duplicated earlier request; draining it here re-aligns the
		// request/response framing.
	}
	switch reply.Kind {
	case MsgDirectives:
		// decodeDirectives hands back a fresh value: gob merges into
		// existing structures (zero fields are omitted on the wire and keep
		// their old bytes on decode), so reusing n.dir would let directives
		// from a previous phase bleed into this one.
		dir, err := decodeDirectives(reply.Payload)
		if err != nil {
			return true, err
		}
		if n.rt != nil && dir.Seq < n.dir.Seq {
			// Resilient nodes keep their newest directives: a reconnect may
			// land on an aggregator whose cache has not seen this node since
			// its last flush, and trading installed patches for that cache
			// miss's empty set would reopen the protection window PR 4's
			// guarantee closed. The node's reports keep carrying the kept
			// sequence, so the manager still credits them correctly.
			return true, nil
		}
		n.dir = dir
		return true, nil
	case MsgAck:
		return true, nil
	}
	return true, fmt.Errorf("community: unexpected reply %v", reply.Kind)
}

// roundTripResilient drives roundTripOnce under the retry policy, with
// seeded-jitter backoff between attempts. Each failure is charged to the
// budget that matches what it says about the connection:
//
//   - A receive timeout after a successful send means the wire is healthy
//     and the reply is lost or slow behind a busy upstream. It draws on
//     RetryPolicy.TimeoutAttempts, and the node resyncs in place: it sends
//     a Hello on the same connection, which a slow reply is still riding
//     on. A Hello re-sent in place keeps its token, so a late reply to any
//     copy completes the resync.
//   - A send error, a receive that fails for any other reason (a dead
//     wire, a bad reply), or a failed re-dial is a hard failure. It draws
//     on MaxAttempts, and the node re-dials a fresh connection (without a
//     redial path it retries in place) and re-registers over it with a
//     Hello before it sends anything else.
//
// A non-idempotent request (report, batch, recording, learning upload) is
// delivered at most once. Once one send of it has succeeded, the peer may
// already have applied it, so it is surrendered to the fault: every later
// attempt is a Hello resync, stamped with a fresh token so roundTripOnce
// drains the request's late reply by its stale one, and the round trip
// succeeds when a resync refreshes the directives, which is all the
// campaign needs to continue. Any other request — a Hello, or one whose
// sends all failed — follows the re-registration Hello on a new
// connection.
func (n *Node) roundTripResilient(sp *obs.Span, env Envelope) error {
	env.Token = n.nextToken()
	req := env
	surrendered := false // req was sent once and may not be sent again
	owed := false        // env is a re-registration Hello that req must follow
	redial := false      // a hard failure condemned the connection
	var lastErr error
	hard, slow := 0, 0
	for {
		var sent bool
		var err error
		if redial {
			err = n.reconnect()
		} else {
			sent, err = n.roundTripOnce(sp, env)
		}
		if err == nil {
			switch {
			case redial:
				redial = false
				if env, err = n.resyncEnvelope(); err != nil {
					return err
				}
				owed = !surrendered
			case owed:
				env, owed = req, false
			default:
				return nil
			}
			continue
		}
		lastErr = err
		timedOut := sent && IsTimeout(err)
		if timedOut {
			slow++
		} else {
			hard++
		}
		if hard >= n.rt.pol.MaxAttempts || hard+slow >= n.rt.pol.TimeoutAttempts {
			break
		}
		n.cRetries.Inc()
		n.rt.sleep(hard)
		if sent && env.Kind != MsgHello {
			// The request may already have been applied upstream;
			// re-sending it would double-count this node's runs.
			surrendered = true
			if env, err = n.resyncEnvelope(); err != nil {
				return err
			}
		}
		redial = !timedOut && n.redial != nil
	}
	return fmt.Errorf("community: node %s: round trip failed after %d attempts: %w",
		n.ID, hard+slow, lastErr)
}

// resyncEnvelope stamps a Hello under a fresh token: the resync that
// re-registers the node upstream (a sibling aggregator or the manager
// itself re-learns the member) and whose reply refreshes the directive
// cache, so protection survives a lost reply or a reconnect.
func (n *Node) resyncEnvelope() (Envelope, error) {
	env, err := helloEnvelope(n.ID)
	env.Token = n.nextToken()
	return env, err
}

// reconnect replaces the node's connection with a freshly dialed one; the
// retry loop re-registers over it before sending anything else.
func (n *Node) reconnect() error {
	conn, err := n.redial()
	if err != nil {
		return err
	}
	if n.conn != nil {
		_ = n.conn.Close()
	}
	n.conn = conn
	n.applyRecvTimeout()
	n.cReconnects.Inc()
	return nil
}

// Directives returns the node's current instruction set (for tests).
func (n *Node) Directives() Directives { return n.dir }

// Sync pulls the manager's current directives.
func (n *Node) Sync() error {
	env, err := helloEnvelope(n.ID)
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
		inv := spec.Invariant
		r := &repair.Repair{
			Inv:      &inv,
			Strategy: spec.Strategy,
			Value:    spec.Value,
			SPDelta:  spec.SPDelta,
			PC:       spec.PC,
			Depth:    spec.Depth,
		}
		patches = append(patches, r.BuildPatches(spec.FailureID)...)
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
	plugins, shadow, hang := replay.AllMonitors().Plugins()

	var rec *trace.Recorder
	if n.dir.LearnHi > n.dir.LearnLo {
		lo, hi := n.dir.LearnLo, n.dir.LearnHi
		rec = trace.NewRecorder(n.engine)
		rec.Filter = func(pc uint32) bool { return pc >= lo && pc < hi }
		plugins = append(plugins, rec)
	}

	cfg := vm.Config{
		Image:    n.Image,
		Plugins:  plugins,
		Patches:  patches,
		Input:    input,
		MaxSteps: n.maxSteps,
	}
	var tape *replay.Tape
	if n.RecordFailures {
		tape = replay.NewTape(n.SnapshotInterval)
		cfg.SnapshotInterval = tape.Interval()
		cfg.SnapshotSink = tape.Sink
	}
	machine, err := vm.New(cfg)
	if err != nil {
		return vm.RunResult{}, RunReport{}, nil, err
	}
	shadow.Install(machine)
	hang.Install(machine)
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
	if tape != nil && res.Failure != nil {
		rsp := n.Obs.Start("record.seal")
		raw, err = n.sealRecording(tape, input, res)
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

// sealRecording seals the tape of a failing run — including the repair
// patches the node was running under, so the manager replays the same
// machine — and returns its wire form for a MsgRecording or MsgBatch
// upload.
func (n *Node) sealRecording(tape *replay.Tape, input []byte, res vm.RunResult) ([]byte, error) {
	deployed := make([]replay.PatchSpec, 0, len(n.dir.Repairs))
	for i := range n.dir.Repairs {
		spec := &n.dir.Repairs[i]
		deployed = append(deployed, replay.PatchSpec{
			FailureID: spec.FailureID,
			Invariant: spec.Invariant,
			Strategy:  spec.Strategy,
			Value:     spec.Value,
			SPDelta:   spec.SPDelta,
			PC:        spec.PC,
			Depth:     spec.Depth,
		})
	}
	rec := tape.Seal(
		fmt.Sprintf("%s/seq%d", n.ID, n.dir.Seq),
		n.Image, input, deployed, replay.AllMonitors(), n.maxSteps, res,
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
func (n *Node) Close() error { return n.conn.Close() }
