package community

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/evaluate"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

// ManagerConfig assembles the central ClearView manager.
type ManagerConfig struct {
	// Image is the protected binary — the manager holds the same image
	// the community runs, for candidate selection and replay.
	Image *image.Image
	// Seed is an optional initial invariant database (e.g. a Blue-Team
	// pre-exercise learning run); node uploads merge into it.
	Seed *daikon.DB
	// BootstrapInputs populate the manager's CFG database: the manager
	// executes them locally once so it can resolve failure locations to
	// procedures when computing candidate invariants (the server holds
	// the same binary the community runs).
	BootstrapInputs [][]byte

	StackScope int // candidate-selection call-stack scope (§4.3.2); default 1
	CheckRuns  int // failing runs with checks in place before classification; default 2
	Bonus      int // never-failed score bonus b (§2.6); default 1
	// LearnShards splits the code range into this many tracing
	// assignments handed to nodes round-robin (§3.1 amortized learning);
	// 0 disables learning assignments.
	LearnShards int

	// ReplayWorkers enables the manager-side replay fast path: when a
	// node ships a failing-run recording (MsgRecording), the manager
	// replays it under the checking patches to complete the checking
	// phase immediately, then judges every candidate repair on a farm of
	// that many workers (<0 means GOMAXPROCS) before handing nodes
	// anything to evaluate live. 0 disables the fast path; recordings are
	// still retained.
	ReplayWorkers int

	// VetReports arms the manager against tampered community input — the
	// §5 discussion's central worry, "an attacker may attempt to subvert
	// the system by submitting fraudulent reports". When set, every
	// report, learning upload, and recording is sanity-checked before it
	// can touch shared state: failure and stack PCs must fall inside the
	// protected image's code range, observations must reference checks
	// the manager actually issued, uploaded invariants must sit inside
	// the code range, and recordings must carry the protected binary's
	// exact image and reproduce their claimed failure when replayed on
	// the farm (replay.Farm.Vet, bounded by a deadline and run outside
	// the manager lock, so a stalling recording delays only its own
	// sender's connection). The first failed check
	// quarantines the sending node: all of its traffic — including
	// later, well-formed reports — is ignored from then on, so a
	// compromised member can be noisy but never poisons the community
	// database or steers repair adoption.
	VetReports bool

	// TrustedAggregators names the provisioned aggregator tier — the
	// deployment analog of the management console's secure channel. When
	// non-empty, only these senders may speak FOR other nodes: an
	// aggregated batch (one carrying NodeIDs, edge Quarantined verdicts,
	// or RecordingFrom attribution) from any other sender is rejected
	// and its connection dropped, so a compromised member cannot
	// impersonate an aggregator to mass-quarantine honest nodes or frame
	// them for forged recordings. Empty trusts any aggregated sender
	// (single-operator deployments and tests).
	//
	// The allowlist keys on the sender ID the batch claims; connections
	// are pinned to their first claimed identity (bindSender), but
	// authenticating that first claim is the transport's job — the
	// deployment must provision the aggregator tier's channels the way
	// the paper's management console provisions its secure channel (see
	// ARCHITECTURE.md's divergences).
	TrustedAggregators []string

	// Obs, when set, records pipeline telemetry into the tracer's
	// registry: a stage span per envelope and per pipeline phase (vet,
	// farm, correlate, learn, evaluate, adopt), with lock and semaphore
	// waits attributed to named blocking points. Nil disables tracing;
	// the manager still keeps its counters (Messages, Batches, Rejects,
	// Uploads, ReplayRuns) in a private registry so the accessors and
	// ObsSnapshot work either way.
	Obs *obs.Tracer
}

// caseState is one failure location at the manager. The lifecycle is
// core.FailureCase's, driven by member reports instead of local runs; what
// caseState adds is the community's own state around it: the phase
// sequence, per-node assignments, adoption attribution, and the index
// that vets inbound observations.
type caseState struct {
	fc *core.FailureCase

	// phaseSeq is the directive sequence at which the case entered its
	// current phase; reports from runs under older directives did not
	// carry this phase's patches and are ignored for this case.
	phaseSeq uint64

	// candIDs indexes the candidate invariant IDs, for vetting inbound
	// observations against the checks the manager actually issued.
	candIDs map[string]bool
	// adoptedBy is the node whose surviving report promoted the current
	// repair to StatePatched ("" before adoption, or for farm-only
	// adoption paths); the soak uses it to prove quarantined nodes never
	// contribute an adopted patch.
	adoptedBy string

	// assigned maps node IDs to the candidate repair each is evaluating
	// in the current phase — the §3 parallel repair evaluation ("the
	// community can evaluate candidate repairs in parallel, reducing the
	// time required to find a successful repair"). Once a repair is
	// adopted (StatePatched) every node runs the adopted one.
	assigned map[string]*evaluate.Entry
	// taken counts how many nodes hold each assigned candidate — the
	// multiset view of assigned, kept in step so assignFor's spread
	// check is a lookup rather than a rebuild (rebuilding per first
	// contact is quadratic in community size).
	taken map[*evaluate.Entry]int
}

// assign records nodeID's candidate, keeping the taken multiset in step.
func (c *caseState) assign(nodeID string, e *evaluate.Entry) {
	if c.assigned == nil {
		c.assigned = make(map[string]*evaluate.Entry)
		c.taken = make(map[*evaluate.Entry]int)
	}
	c.assigned[nodeID] = e
	c.taken[e]++
}

// unassign releases nodeID's candidate, if any, for reassignment.
func (c *caseState) unassign(nodeID string) {
	e, ok := c.assigned[nodeID]
	if !ok {
		return
	}
	delete(c.assigned, nodeID)
	if c.taken[e]--; c.taken[e] == 0 {
		delete(c.taken, e)
	}
}

// clearAssignments opens a new phase: every node is reassigned on its
// next contact.
func (c *caseState) clearAssignments() {
	c.assigned = nil
	c.taken = nil
}

// assignFor picks the repair a node should evaluate: the node keeps its
// assignment within a phase; new nodes take the best not-yet-assigned
// candidate, wrapping around when there are more nodes than candidates.
// Called only while the case is evaluating or patched.
func (c *caseState) assignFor(nodeID string) *evaluate.Entry {
	if c.fc.State == core.StatePatched {
		return c.fc.Current
	}
	if e, ok := c.assigned[nodeID]; ok {
		return e
	}
	ranked := c.fc.Evaluator.Ranked()
	var pick *evaluate.Entry
	for _, e := range ranked {
		if c.taken[e] == 0 && e.Failures == 0 {
			pick = e
			break
		}
	}
	if pick == nil {
		pick = ranked[0] // all assigned or all failed: share the best
	}
	c.assign(nodeID, pick)
	return pick
}

// Manager is the central server: it owns the community invariant database,
// reacts to failure notifications, pushes checking and repair patches, and
// evaluates repairs from the community's reports (§3.2).
type Manager struct {
	conf ManagerConfig
	mu   sync.Mutex
	// lifecycle is what every failure case's steps read: the image, the
	// community invariant database (uploads merge into it), the CFG
	// database and the pipeline knobs.
	lifecycle core.Config
	cases     map[uint32]*caseState
	order     []uint32
	seq       uint64

	nodes     map[string]int // node id -> learning shard
	nextShard int

	recordings map[uint32]*replay.Recording // latest failing recording per location
	// vetSem bounds concurrent vet replays across ALL connections (vetting
	// runs outside m.mu, so without it N senders could each spin up a full
	// farm's worth of replay goroutines at once).
	vetSem chan struct{}

	// quarantined maps offending node IDs to the reason their first
	// failed sanity check gave; once present, every message the node
	// sends is ignored (VetReports).
	quarantined map[string]string
	// lastFlush tracks the highest FlushSeq applied per aggregator, so a
	// re-sent flush snapshot (retry across a lost reply, or a duplicated
	// envelope) is answered but never applied twice. See Batch.FlushSeq.
	lastFlush map[string]uint64
	// flushing holds, per aggregator, a channel closed once the flush
	// snapshot lastFlush names has been applied; a duplicate of it waits
	// on the channel before it is answered.
	flushing    map[string]chan struct{}
	trustedAggs map[string]bool // nil = any sender may aggregate
	imgWire     []byte          // the protected image's wire form, for recording identity checks

	// Telemetry. tr is nil when tracing is disabled; reg always exists so
	// the counters below are live atomics either way, readable without
	// m.mu (the counter accessors and ObsSnapshot are race-safe by
	// construction).
	tr          *obs.Tracer
	reg         *obs.Registry
	cMessages   *obs.Counter // envelopes handled
	cBatches    *obs.Counter // MsgBatch envelopes among them
	cRejects    *obs.Counter // inputs rejected without node attribution
	cUploads    *obs.Counter // learning uploads merged
	cReplayRuns *obs.Counter // offline replays run by the fast path
	cAdoptions  *obs.Counter // case transitions into StatePatched
}

// NewManager builds and bootstraps a manager.
func NewManager(conf ManagerConfig) (*Manager, error) {
	if conf.Image == nil {
		return nil, fmt.Errorf("community: nil image")
	}
	if conf.CheckRuns <= 0 {
		conf.CheckRuns = 2
	}
	vetWorkers := conf.ReplayWorkers
	if vetWorkers <= 0 {
		vetWorkers = runtime.GOMAXPROCS(0)
	}
	reg := conf.Obs.Registry()
	if reg == nil {
		reg = obs.New()
	}
	seed := conf.Seed
	if seed == nil {
		seed = daikon.NewDB()
	}
	m := &Manager{
		conf: conf,
		lifecycle: core.Config{
			Image:      conf.Image,
			Invariants: seed,
			CFG:        cfg.NewDB(conf.Image),
			StackScope: conf.StackScope,
			CheckRuns:  conf.CheckRuns,
			Bonus:      conf.Bonus,
			Obs:        conf.Obs,
		},
		cases:       make(map[uint32]*caseState),
		nodes:       make(map[string]int),
		recordings:  make(map[uint32]*replay.Recording),
		quarantined: make(map[string]string),
		lastFlush:   make(map[string]uint64),
		flushing:    make(map[string]chan struct{}),
		imgWire:     conf.Image.Marshal(),
		vetSem:      make(chan struct{}, vetWorkers),
		tr:          conf.Obs,
		reg:         reg,
		cMessages:   reg.Counter("mgr.messages"),
		cBatches:    reg.Counter("mgr.batches"),
		cRejects:    reg.Counter("mgr.rejects"),
		cUploads:    reg.Counter("mgr.uploads"),
		cReplayRuns: reg.Counter("mgr.replay_runs"),
		cAdoptions:  reg.Counter("mgr.adoptions"),
	}
	if len(conf.TrustedAggregators) > 0 {
		m.trustedAggs = make(map[string]bool, len(conf.TrustedAggregators))
		for _, id := range conf.TrustedAggregators {
			m.trustedAggs[id] = true
		}
	}
	for _, input := range conf.BootstrapInputs {
		machine, err := vm.New(vm.Config{
			Image:   conf.Image,
			Plugins: []vm.Plugin{cfg.NewPlugin(m.lifecycle.CFG)},
			Input:   input,
		})
		if err != nil {
			return nil, err
		}
		machine.Run()
	}
	return m, nil
}

// InvariantCount returns the size of the community database.
func (m *Manager) InvariantCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lifecycle.Invariants.Len()
}

// Uploads returns how many learning uploads have been merged.
func (m *Manager) Uploads() int {
	return int(m.cUploads.Value())
}

// ObsSnapshot captures the manager's telemetry — counters and, when a
// tracer was configured, per-stage wall/blocked accounting — without
// taking m.mu, so it is safe to call from any goroutine at any time.
func (m *Manager) ObsSnapshot() obs.Snapshot {
	return m.reg.Snapshot()
}

// CaseStates returns the state of every failure case by location.
func (m *Manager) CaseStates() map[uint32]core.CaseState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint32]core.CaseState, len(m.cases))
	for pc, c := range m.cases {
		out[pc] = c.fc.State
	}
	return out
}

// Serve handles one node connection until it closes. Run it in a
// goroutine per connection (both transports support concurrent serving).
// The connection is bound to the first sender identity it claims (see
// bindSender), so one peer cannot speak as a member and later as another
// member or an aggregator over the same channel.
func (m *Manager) Serve(conn Conn) error { return m.endpoint().serve(conn) }

// endpoint is the manager as a transport sees it. A lone manager never
// severs its connections, so it tracks none.
func (m *Manager) endpoint() endpoint { return endpoint{handle: m.handle} }

// handle applies one envelope: a Hello registers its sender; everything
// else arrives as a batch (decodeRequest wraps a single report, upload or
// recording as a one-item member batch). Batches counts MsgBatch
// envelopes only.
func (m *Manager) handle(env Envelope, bound *string) (Envelope, error) {
	m.cMessages.Inc()
	sp := m.tr.Start("mgr.handle")
	defer sp.Finish()
	sender, b, err := decodeRequest(env, bound)
	if err != nil {
		return Envelope{}, err
	}
	if b == nil {
		done := sp.Block("mgr.mu")
		m.mu.Lock()
		done()
		m.registerLocked(sender)
		m.mu.Unlock()
		return m.directivesFor(sender)
	}
	if err := m.handleBatch(b, sp); err != nil {
		return Envelope{}, err
	}
	if env.Kind == MsgBatch {
		m.cBatches.Inc()
	}
	if batchAggregated(b) {
		return m.directivesSetFor(b.NodeIDs)
	}
	return m.directivesFor(sender)
}

// registerLocked hands a first-seen node its learning shard. Called with
// m.mu held. Registration is keyed by node ID, never by connection, so a
// node that crashes and re-attaches — to the manager or to any aggregator —
// keeps its shard.
func (m *Manager) registerLocked(nodeID string) {
	if _, ok := m.nodes[nodeID]; ok {
		return
	}
	shard := -1
	if m.conf.LearnShards > 0 {
		shard = m.nextShard % m.conf.LearnShards
		m.nextShard++
	}
	m.nodes[nodeID] = shard
}

// isQuarantined reports whether a node is quarantined. It exists so
// ingest paths can drop a quarantined sender's payload BEFORE decoding
// it: quarantined traffic must cost a map lookup, not unmarshal work.
func (m *Manager) isQuarantined(nodeID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined[nodeID] != ""
}

// mergeDBFrom sanity-checks and folds a decoded database in, quarantining
// the sender on a poisoned upload ("" attributes nothing: a bad pre-merged
// aggregate is rejected and counted, since the offender was the
// aggregator's to catch). Called with m.mu held.
func (m *Manager) mergeDBFrom(nodeID string, db *daikon.DB) {
	if m.quarantined[nodeID] != "" {
		return
	}
	if m.conf.VetReports {
		if reason := m.checkLearnDB(db); reason != "" {
			if nodeID == "" {
				m.cRejects.Inc()
			} else {
				m.quarantineLocked(nodeID, reason)
			}
			return
		}
	}
	m.mergeDB(db)
}

// mergeDB folds a decoded node database in. Called with m.mu held.
func (m *Manager) mergeDB(db *daikon.DB) {
	if inv := m.lifecycle.Invariants; inv.Len() == 0 && len(inv.VarsSeen) == 0 {
		m.lifecycle.Invariants = db
	} else {
		inv.Merge(db, daikon.DefaultMaxOneOf)
	}
	m.cUploads.Inc()
}

// ingestDecoded vets and stores decoded recordings (senders is parallel to
// recs) and, with ReplayWorkers set, runs each distinct failure location's
// replay fast path (core.FailureCase.Replay) once — not once per
// recording, which is the batching win: a hundred nodes shipping the same
// deterministic failure cost one farm pass. Called WITHOUT
// m.mu held: the static checks and the final stores run under the lock,
// but the farm-backed vetting — the only step bounded by wall clock rather
// than work — runs outside it, so an adversarial recording crafted to
// stall the vetter delays only the connection that shipped it, never every
// other connection the manager is serving.
func (m *Manager) ingestDecoded(recs []*replay.Recording, senders []string) {
	if len(recs) == 0 {
		return
	}
	type vetJob struct {
		rec    *replay.Recording
		sender string
		pc     uint32
	}
	sp := m.tr.Start("record")
	defer sp.Finish()
	done := sp.Block("mgr.mu")
	m.mu.Lock()
	done()
	pend := make([]vetJob, 0, len(recs))
	for i, rec := range recs {
		sender := ""
		if i < len(senders) {
			sender = senders[i]
		}
		if m.quarantined[sender] != "" {
			continue
		}
		pc, ok := rec.FailurePC()
		if !ok {
			continue
		}
		if m.conf.VetReports {
			if reason := checkRecordingStatic(m.conf.Image, m.imgWire, rec, pc); reason != "" {
				m.quarantineLocked(sender, reason)
				continue
			}
			m.cReplayRuns.Inc()
		}
		pend = append(pend, vetJob{rec, sender, pc})
	}
	vet := m.conf.VetReports
	m.mu.Unlock()

	// Farm-backed vetting, off the lock: the claimed failure must
	// reproduce when the recording is replayed as sealed. The machine is
	// deterministic, so honest recordings cannot fail this; a mismatch
	// means the claim was fabricated. vetSem bounds replay concurrency
	// across every connection currently ingesting recordings — not just
	// this call — so a flood of recording batches cannot oversubscribe
	// the host with one farm's worth of replays per sender.
	var verdicts []error
	if vet && len(pend) > 0 {
		verdicts = make([]error, len(pend))
		farm := m.vetFarm()
		var wg sync.WaitGroup
		for i := range pend {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				vsp := m.tr.Start("vet")
				defer vsp.Finish()
				wait := vsp.Block("vetsem")
				m.vetSem <- struct{}{}
				wait()
				defer func() { <-m.vetSem }()
				verdicts[i] = farm.Vet(pend[i].rec)
			}(i)
		}
		// The span owner parks here while the vet goroutines drain: that
		// wait is this stage's fan-out cost, not CPU work.
		sp.BlockFor("vet.fanout", wg.Wait)
	}

	done = sp.Block("mgr.mu")
	m.mu.Lock()
	done()
	var pcs []uint32
	seen := make(map[uint32]bool)
	for i := range pend {
		if m.quarantined[pend[i].sender] != "" {
			continue // quarantined while this batch was off vetting
		}
		if verdicts != nil && verdicts[i] != nil {
			m.quarantineLocked(pend[i].sender, verdicts[i].Error())
			continue
		}
		m.recordings[pend[i].pc] = pend[i].rec
		if !seen[pend[i].pc] {
			seen[pend[i].pc] = true
			pcs = append(pcs, pend[i].pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		if c := m.cases[pc]; c != nil && m.conf.ReplayWorkers != 0 {
			m.replayLocked(c, m.recordings[pc])
		}
	}
	m.mu.Unlock()
}

// replayLocked runs c's replay fast path on rec: the manager holds the
// same binary the community runs, so it fills the checking run log the
// nodes would otherwise take live executions to produce, and the farm
// judges every candidate before any node is asked to evaluate one in
// production. Finishing the checks opens a new phase, and so do farm
// verdicts: the candidate ranking changed, so in-flight reports must not
// be credited against the new assignments.
//
// These replays run under m.mu, but only for vetted recordings and with
// bounded work: checkRecordingStatic caps the claimed step budget at one
// honest run's (maxVetSteps), checking replays at most CheckRuns times,
// and each farm replay carries vetDeadline — a candidate whose replay
// overruns it yields an Err verdict, which is no evidence either way, so
// live evaluation decides. The fast path costs at most a short, fixed
// burst per distinct failure location, not an attacker-controlled stall.
func (m *Manager) replayLocked(c *caseState, rec *replay.Recording) {
	farm := &replay.Farm{Workers: max(m.conf.ReplayWorkers, 0), Deadline: vetDeadline, Obs: m.tr}
	checking, runs := c.fc.State == core.StateChecking, c.fc.Metrics.ReplayRuns
	ranked := c.fc.Replay(rec, farm)
	m.cReplayRuns.Add(int64(c.fc.Metrics.ReplayRuns - runs))
	if checking && c.fc.State != core.StateChecking {
		m.newPhase(c)
	}
	if ranked {
		m.newPhase(c)
	}
}

// vetDeadline bounds each recording vet in wall clock. A recording crafted
// to stall (a huge claimed step budget over a spin loop) must be rejected,
// not waited on — an honest webapp recording replays in milliseconds, so
// the margin is enormous. Vetting runs outside m.mu (see ingestDecoded),
// so even a deadline miss stalls only the sender's own ingestion.
const vetDeadline = 5 * time.Second

// vetFarm returns the deadline-bounded farm used for recording vetting.
// Concurrency is bounded by m.vetSem at the call sites (per-Vet tokens,
// shared across connections), not by Farm.Workers.
func (m *Manager) vetFarm() *replay.Farm {
	return &replay.Farm{Deadline: vetDeadline, Obs: m.tr}
}

// aggregatorTrusted reports whether a sender may speak for other nodes.
func (m *Manager) aggregatorTrusted(id string) bool {
	return m.trustedAggs == nil || m.trustedAggs[id]
}

// batchAggregated reports whether a batch exercises aggregator powers —
// explicitly flagged, or carrying any field that speaks for other nodes.
func batchAggregated(b *Batch) bool {
	return b.Aggregated || len(b.NodeIDs) > 0 || len(b.Quarantined) > 0 || len(b.RecordingFrom) > 0
}

// handleBatch applies batched activity: learning uploads first, then the
// run reports in execution order, then the recordings — the same
// sequencing RunOnce produces message by message, collapsed into one
// envelope. Every serialized payload is decoded up front, so a malformed
// batch is rejected whole rather than half-applied.
//
// An aggregated batch (NodeIDs non-empty) additionally registers the
// member nodes, merges the sending aggregator's edge quarantine verdicts,
// and attributes each recording to the member that captured it. A batch
// that speaks for other nodes — NodeIDs, Quarantined verdicts, or
// RecordingFrom attribution — is only honored from a trusted aggregator;
// from anyone else it is a protocol violation and the connection is
// dropped (an ordinary member must not be able to frame or
// mass-quarantine its peers). The same rule governs report attribution:
// only a trusted aggregated batch may relay reports carrying foreign
// NodeIDs; in a plain member batch, a report claiming any identity but the
// sender's own is a framing attempt (under VetReports it could quarantine
// the named peer, or credit it with an adoption) and is dropped, counted
// in Rejects.
func (m *Manager) handleBatch(b *Batch, sp *obs.Span) error {
	aggregated := batchAggregated(b)
	if aggregated && !m.aggregatorTrusted(b.NodeID) {
		return fmt.Errorf("community: %q is not a trusted aggregator", b.NodeID)
	}
	if aggregated && b.FlushSeq != 0 {
		// At-most-once application per flush snapshot: a duplicate (the
		// sender retrying across a lost reply, or a faulty wire delivering
		// the envelope twice) is acknowledged — handle still answers with
		// the members' current directives — but applied zero more times.
		// A duplicate that races the copy still being applied (a retry on
		// a fresh connection) waits for it, so its answer never predates
		// the snapshot it repeats.
		m.mu.Lock()
		dup := m.lastFlush[b.NodeID] >= b.FlushSeq
		applying := m.flushing[b.NodeID]
		if !dup {
			m.lastFlush[b.NodeID] = b.FlushSeq
			applied := make(chan struct{})
			m.flushing[b.NodeID] = applied
			defer m.flushApplied(b.NodeID, applied)
		}
		m.mu.Unlock()
		if dup {
			if applying != nil {
				<-applying
			}
			return nil
		}
	}
	if !aggregated && m.isQuarantined(b.NodeID) {
		// The whole batch is from a quarantined member: ignored at
		// map-lookup cost, before any payload is unmarshalled. (The
		// locked section below re-checks, in case quarantine lands
		// between here and there.)
		return nil
	}

	dbs := make([]*daikon.DB, 0, len(b.LearnDBs))
	for _, raw := range b.LearnDBs {
		db, err := daikon.UnmarshalDB(raw)
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	recs := make([]*replay.Recording, 0, len(b.Recordings))
	senders := make([]string, 0, len(b.Recordings))
	unattributed := 0
	for i, raw := range b.Recordings {
		rec, err := replay.Unmarshal(raw)
		if err != nil {
			return err
		}
		sender := b.NodeID
		if aggregated {
			// Aggregated recordings must name their capturing member: an
			// unattributed one is dropped rather than blamed on the
			// aggregator (a failed vet must never quarantine the trusted
			// tier itself).
			sender = ""
			if i < len(b.RecordingFrom) {
				sender = b.RecordingFrom[i]
			}
			if sender == "" {
				unattributed++
				continue
			}
		}
		recs = append(recs, rec)
		senders = append(senders, sender)
	}
	reports := b.Reports
	misattributed := 0
	if !aggregated {
		reports = make([]RunReport, 0, len(b.Reports))
		for i := range b.Reports {
			if b.Reports[i].NodeID != b.NodeID {
				misattributed++
				continue
			}
			reports = append(reports, b.Reports[i])
		}
	}

	done := sp.Block("mgr.mu")
	m.mu.Lock()
	done()
	m.cRejects.Add(int64(unattributed + misattributed))
	if !aggregated && m.quarantined[b.NodeID] != "" {
		m.mu.Unlock()
		return nil // the whole batch is from a quarantined node
	}
	for _, id := range b.NodeIDs {
		m.registerLocked(id)
	}
	for _, id := range b.Quarantined {
		m.quarantineLocked(id, "edge sanity check at aggregator "+b.NodeID)
	}
	dbSender := b.NodeID
	if aggregated {
		// An aggregated learn DB is pre-merged across members; a bad one
		// is rejected without attribution (the offender was the
		// aggregator's edge checks' to catch).
		dbSender = ""
	}
	if len(dbs) > 0 {
		lsp := m.tr.Start("learn")
		for _, db := range dbs {
			m.mergeDBFrom(dbSender, db)
		}
		lsp.Finish()
	}
	if len(reports) > 0 {
		esp := m.tr.Start("evaluate")
		for i := range reports {
			m.applyReport(&reports[i])
		}
		esp.Finish()
	}
	m.mu.Unlock()
	m.ingestDecoded(recs, senders)
	return nil
}

// flushApplied marks an aggregator's flush snapshot applied, releasing
// any duplicate of it waiting to be answered.
func (m *Manager) flushApplied(sender string, applied chan struct{}) {
	m.mu.Lock()
	if m.flushing[sender] == applied {
		delete(m.flushing, sender)
	}
	m.mu.Unlock()
	close(applied)
}

// applyReport advances every failure case with one member run, through
// the same core.FailureCase steps a ClearView instance takes with its own
// runs, and opens a case for a failure at a new location. Called with m.mu
// held.
func (m *Manager) applyReport(rep *RunReport) {
	if rep.NodeID == "" {
		m.cRejects.Inc() // anonymous reports have no accountable sender
		return
	}
	if m.quarantined[rep.NodeID] != "" {
		return
	}
	if m.conf.VetReports {
		if reason := m.checkReport(rep); reason != "" {
			m.quarantineLocked(rep.NodeID, reason)
			return
		}
	}

	obsByFailure := map[string][]correlate.Observation{}
	for _, o := range rep.Observations {
		obsByFailure[o.FailureID] = append(obsByFailure[o.FailureID], o)
	}

	for _, pc := range m.order {
		c := m.cases[pc]
		if rep.Seq < c.phaseSeq {
			// The node ran without this phase's patches installed.
			continue
		}
		fc := c.fc
		recurred := rep.Failure != nil && rep.Failure.PC == fc.PC
		switch fc.State {
		case core.StateChecking:
			fc.RecordCheckRun(recurred, obsByFailure[fc.ID])
			if fc.State != core.StateChecking {
				m.newPhase(c)
			}
		case core.StateEvaluating, core.StatePatched:
			was := fc.State
			fc.RecordRepairRun(c.assignFor(rep.NodeID), recurred, vm.Outcome(rep.Outcome), rep.ExitCode)
			switch {
			case was == core.StatePatched && fc.State != core.StatePatched:
				// The adopted, community-wide patch stopped working: it is
				// demoted and the evaluation reopens.
				m.newPhase(c)
				c.adoptedBy = ""
			case fc.State == core.StatePatched && was == core.StateEvaluating:
				// Adopted: the repair that survived, possibly one a peer
				// node was evaluating, not the global best.
				c.clearAssignments()
				c.adoptedBy = rep.NodeID
				m.cAdoptions.Inc()
			case fc.State != core.StatePatched:
				// One node's candidate failed. Only that node is
				// reassigned; peers evaluating other candidates in the
				// same round keep reporting (the §3 parallelism).
				c.unassign(rep.NodeID)
			}
		}
	}

	if rep.Failure == nil {
		return
	}
	if _, known := m.cases[rep.Failure.PC]; !known {
		c := &caseState{fc: core.OpenCase(&m.lifecycle, rep.Failure.PC, rep.Failure.Stack)}
		c.candIDs = make(map[string]bool, len(c.fc.Candidates))
		for _, cand := range c.fc.Candidates {
			c.candIDs[cand.Inv.ID()] = true
		}
		m.newPhase(c)
		m.cases[c.fc.PC] = c
		m.order = append(m.order, c.fc.PC)
	}
}

// newPhase starts a new phase of c at a fresh directive sequence: reports
// from runs under an earlier phase's patches stop counting for c, and
// every node is reassigned on its next contact. A case's phases start when
// it opens, when its checking finishes, when farm verdicts re-rank its
// candidates, and when its adopted repair is demoted.
func (m *Manager) newPhase(c *caseState) {
	m.seq++
	c.phaseSeq = m.seq
	c.clearAssignments()
}

// RecordingCount returns how many failure locations have a recording.
func (m *Manager) RecordingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recordings)
}

// ReplayRuns returns how many offline replays the fast path has executed.
func (m *Manager) ReplayRuns() int {
	return int(m.cReplayRuns.Value())
}

// Messages returns how many envelopes the manager has handled — the cost
// the batching protocol amortizes.
func (m *Manager) Messages() int {
	return int(m.cMessages.Value())
}

// Batches returns how many MsgBatch envelopes were among the messages.
func (m *Manager) Batches() int {
	return int(m.cBatches.Value())
}

// quarantineLocked marks a node as untrusted; its traffic is ignored from
// now on, including later well-formed reports. Called with m.mu held.
func (m *Manager) quarantineLocked(nodeID, reason string) {
	if nodeID == "" || m.quarantined[nodeID] != "" {
		return
	}
	m.quarantined[nodeID] = reason
	// A node already holding a candidate assignment must not keep it: its
	// future reports are ignored, so the assignment would starve.
	for _, c := range m.cases {
		c.unassign(nodeID)
	}
}

// checkReport returns the reason a run report is implausible, or "" if it
// passes: the static image checks (checkReportStatic), plus the checks
// only the manager's campaign state can answer — observations must
// reference checks the manager actually issued (a known failure case and
// one of its candidate invariants) — and, last, the folded stream's bound
// on observations per invariant (checkObservationBound). Called with m.mu
// held.
func (m *Manager) checkReport(rep *RunReport) string {
	if reason := checkReportStatic(m.conf.Image, rep); reason != "" {
		return reason
	}
	for i := range rep.Observations {
		o := &rep.Observations[i]
		c := m.caseByID(o.FailureID)
		if c == nil {
			return fmt.Sprintf("observation for unknown failure case %q", o.FailureID)
		}
		if !c.candIDs[o.InvID] {
			return fmt.Sprintf("observation for invariant %q never issued for case %q", o.InvID, o.FailureID)
		}
	}
	return checkObservationBound(rep)
}

// checkLearnDB applies the static database checks; see checkLearnDBStatic.
func (m *Manager) checkLearnDB(db *daikon.DB) string {
	return checkLearnDBStatic(m.conf.Image, db)
}

// caseByID finds a failure case by its wire identifier. Called with m.mu
// held.
func (m *Manager) caseByID(id string) *caseState {
	for _, pc := range m.order {
		if c := m.cases[pc]; c.fc.ID == id {
			return c
		}
	}
	return nil
}

// Quarantined returns the quarantined node IDs and the reason each
// tripped, as a copy.
func (m *Manager) Quarantined() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.quarantined))
	for id, reason := range m.quarantined {
		out[id] = reason
	}
	return out
}

// Rejects returns how many inputs were dropped without advancing any
// state: pre-merged aggregate databases that failed sanity checks,
// aggregated recordings with no capturing member named, and member-batch
// reports claiming a NodeID other than the batch sender's.
func (m *Manager) Rejects() int {
	return int(m.cRejects.Value())
}

// Adoptions returns, for every currently patched failure location, the
// node whose surviving report drove the adoption ("" when the adoption
// came from a path with no attributable report).
func (m *Manager) Adoptions() map[uint32]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint32]string)
	for pc, c := range m.cases {
		if c.fc.State == core.StatePatched {
			out[pc] = c.adoptedBy
		}
	}
	return out
}

// directivesFor snapshots the current patch set for one node.
func (m *Manager) directivesFor(nodeID string) (Envelope, error) {
	sp := m.tr.Start("adopt")
	done := sp.Block("mgr.mu")
	m.mu.Lock()
	done()
	d := m.directivesLocked(nodeID)
	m.mu.Unlock()
	sp.Finish()
	return NewEnvelope(MsgDirectives, d)
}

// directivesSetFor snapshots the current patch set for every listed node
// under one lock — the reply to an aggregated batch. Nodes are visited in
// the given order, so candidate assignment (which mutates per-case state)
// is deterministic for a sorted NodeIDs list.
func (m *Manager) directivesSetFor(nodeIDs []string) (Envelope, error) {
	sp := m.tr.Start("adopt")
	done := sp.Block("mgr.mu")
	m.mu.Lock()
	done()
	set := DirectivesSet{Seq: m.seq, ByNode: make(map[string]Directives, len(nodeIDs))}
	for _, id := range nodeIDs {
		set.ByNode[id] = m.directivesLocked(id)
	}
	m.mu.Unlock()
	sp.Finish()
	return NewEnvelope(MsgDirectivesSet, set)
}

// directivesLocked assembles one node's directives. Called with m.mu held.
//
// A quarantined node still receives plausible directives — the reply
// reveals nothing about its status — but is never handed a per-node
// candidate assignment: its reports are ignored, so an assignment would
// park that candidate unevaluated forever (the quarantined node gets the
// case's current best, read-only).
func (m *Manager) directivesLocked(nodeID string) Directives {
	quarantined := m.quarantined[nodeID] != ""
	d := Directives{Seq: m.seq}
	for _, pc := range m.order {
		fc := m.cases[pc].fc
		switch fc.State {
		case core.StateChecking:
			for _, cand := range fc.Candidates {
				d.Checks = append(d.Checks, CheckSpec{
					FailureID: fc.ID,
					Invariant: *cand.Inv,
				})
			}
		case core.StateEvaluating, core.StatePatched:
			entry := fc.Current
			if !quarantined {
				entry = m.cases[pc].assignFor(nodeID)
			}
			d.Repairs = append(d.Repairs, replay.Spec(fc.ID, entry.Repair))
		}
	}
	if shard, ok := m.nodes[nodeID]; ok && shard >= 0 && m.conf.LearnShards > 0 {
		span := (uint32(len(m.conf.Image.Code)) + uint32(m.conf.LearnShards) - 1) / uint32(m.conf.LearnShards)
		d.LearnLo = m.conf.Image.Base + span*uint32(shard)
		d.LearnHi = d.LearnLo + span
	}
	return d
}
