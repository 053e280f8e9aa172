package community

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/replay"
)

// AggregatorConfig assembles one region's aggregator.
type AggregatorConfig struct {
	// ID names the aggregator on the wire (it is the NodeID of the
	// compacted batches it sends upstream).
	ID string
	// Image is the protected binary, for edge sanity checks.
	Image *image.Image
	// Upstream is the connection to the central manager. (Only the
	// manager can terminate an aggregated batch — aggregators do not
	// chain under each other.)
	Upstream Conn
	// FlushEvery auto-flushes once this many run reports are buffered;
	// 0 flushes only when Flush is called (e.g. once per soak round).
	FlushEvery int
	// VetReports enables the edge sanity checks: reports, uploads, and
	// recordings whose PCs fall outside the image's code range quarantine
	// the sending node locally — the poisoned input never travels
	// upstream — and the verdict is reported to the manager with the next
	// flush. Checks that need global state (observation provenance) or a
	// replay farm (recording reproduction) remain the manager's.
	VetReports bool

	// Obs, when set, records aggregator telemetry into the tracer's
	// registry: a span per member envelope (agg.handle) and per flush,
	// with waits attributed to flushmu, agg.mu, and the upstream round
	// trip. Nil disables tracing; counters stay live either way.
	Obs *obs.Tracer

	// Retry, when set, arms the retry policy: flush round trips run under
	// the policy's receive timeout and are retried with backoff,
	// re-dialing the manager via Redial after hard failures (root
	// failover: the re-dial lands on the promoted leader). Nil makes each
	// flush one attempt with no receive deadline. Either way each flush
	// snapshot is numbered (Batch.FlushSeq), so a re-sent or duplicated
	// flush is applied at most once upstream.
	Retry *RetryPolicy
	// Redial reopens the upstream connection for retries.
	Redial func() (Conn, error)
}

// Aggregator is the middle tier of the two-level community: it serves a
// region of member nodes exactly like a manager would — same protocol,
// same Conn transport — while speaking to the central manager as a single,
// well-batched client. It merges its region's learning uploads into one
// database, deduplicates failing-run recordings per failure location,
// buffers run reports in arrival order, and forwards the lot as one
// compacted MsgBatch per flush. The manager's DirectivesSet reply is
// cached per member node, so node syncs between flushes cost no upstream
// traffic at all: central-manager load scales with the number of
// aggregators, not the number of nodes.
//
// Members may attach, detach, and re-attach freely (see Node.Attach): all
// community state is keyed by node ID at the manager, so a node that
// crashes mid-campaign and comes back through a different aggregator keeps
// its learning shard and its repair assignments.
type Aggregator struct {
	conf AggregatorConfig

	// flushMu serializes flushes: exactly one upstream round trip is in
	// flight at a time, and taking a snapshot, sending it and keeping it
	// pending are atomic with respect to other flushes. It is always
	// acquired before a.mu, never while holding it.
	flushMu sync.Mutex

	mu    sync.Mutex
	nodes map[string]bool       // member IDs seen (registered upstream at next flush)
	dirs  map[string]Directives // per-member directive cache from the last flush

	reports    []RunReport
	learn      *daikon.DB
	learnCount int
	recRaw     map[uint32][]byte // pending recordings, deduped per failure PC
	recFrom    map[uint32]string // capturing node per pending recording

	quarantined map[string]bool
	newlyQuar   []string // edge verdicts not yet reported upstream
	imgWire     []byte   // the protected image's wire form, for recording identity checks

	// epoch counts flush snapshots taken (takeLocked bumps it); state
	// buffered at epoch e rides the NEXT snapshot, number e+1. delivered
	// is the highest snapshot number whose flush fully completed — batch
	// sent AND DirectivesSet reply merged — so "my data went upstream and
	// the directive cache reflects it" is exactly delivered > e (see
	// flushIfDue). A flush that got no reply advances nothing.
	epoch     uint64
	delivered uint64 // see epoch

	// pending is the numbered flush envelope that got no reply, and
	// pendingSeq its snapshot number (0: none). Guarded by flushMu.
	pending    Envelope
	pendingSeq uint64

	served *connSet // live member connections, severed by Close
	closed bool

	// up is the manager connection and the retry loop flushes run
	// through; flushMu serializes its round trips.
	up client

	// Telemetry; see Manager's twin fields. The counters are atomics in
	// reg, readable without a.mu.
	tr        *obs.Tracer
	reg       *obs.Registry
	cUpstream *obs.Counter // envelopes sent upstream (the number the hierarchy minimizes)
	cFlushes  *obs.Counter // completed flushes
	cRejects  *obs.Counter // member-batch reports dropped for claiming a peer's identity
}

// NewAggregator builds an aggregator speaking to the manager over
// conf.Upstream.
func NewAggregator(conf AggregatorConfig) (*Aggregator, error) {
	if conf.ID == "" {
		return nil, fmt.Errorf("community: aggregator needs an ID")
	}
	if conf.Image == nil {
		return nil, fmt.Errorf("community: aggregator needs an image")
	}
	if conf.Upstream == nil {
		return nil, fmt.Errorf("community: aggregator needs an upstream connection")
	}
	reg := conf.Obs.Registry()
	if reg == nil {
		reg = obs.New()
	}
	a := &Aggregator{
		conf:        conf,
		nodes:       make(map[string]bool),
		dirs:        make(map[string]Directives),
		recRaw:      make(map[uint32][]byte),
		recFrom:     make(map[uint32]string),
		quarantined: make(map[string]bool),
		imgWire:     conf.Image.Marshal(),
		served:      newConnSet("aggregator " + conf.ID),
		tr:          conf.Obs,
		reg:         reg,
		cUpstream:   reg.Counter("agg.upstream"),
		cFlushes:    reg.Counter("agg.flushes"),
		cRejects:    reg.Counter("agg.rejects"),
	}
	a.up = client{role: "aggregator", id: conf.ID, conn: conf.Upstream, cSent: a.cUpstream}
	a.up.arm(conf.Retry, conf.Redial, reg.Counter("agg.retries"), reg.Counter("agg.redials"))
	return a, nil
}

// Serve handles one member connection until it closes; run it in a
// goroutine per connection, like Manager.Serve. The connection is bound to
// the first sender identity it claims (see bindSender), so a member cannot
// switch to a peer's identity mid-stream.
func (a *Aggregator) Serve(conn Conn) error { return a.endpoint().serve(conn) }

// endpoint is the aggregator as a transport sees it.
func (a *Aggregator) endpoint() endpoint { return endpoint{a.handle, a.served} }

// handle buffers one member message, flushes if the message made a flush
// due, and answers from the directive cache. bound is the connection's
// pinned sender identity (see bindSender).
//
// Handling is two-phase. decode does everything that needs no aggregator
// state — payload decode, learn-database and recording unmarshal, the
// static vet checks — on the member connection's own goroutine, outside
// every lock. apply then takes a.mu only to fold the pre-decoded, pre-vetted
// items into the flush buffers. Profiling the 1,000-node soak showed the
// old single-phase shape (all decode work under a.mu) convoying every
// member in a region behind whichever one was unmarshalling a batch:
// agg.handle spent ~85% of its wall time blocked on agg.mu, and the
// members' node.sync upstream waits were the same convoy seen from the
// other side of the wire.
func (a *Aggregator) handle(env Envelope, bound *string) (Envelope, error) {
	sp := a.tr.Start("agg.handle")
	defer sp.Finish()
	msg, err := a.decode(env, bound, sp)
	if err != nil {
		return Envelope{}, err
	}
	nodeID, epoch, needFlush, err := a.apply(msg, sp)
	if err != nil {
		return Envelope{}, err
	}
	if needFlush {
		if err := a.flushIfDue(epoch); err != nil {
			return Envelope{}, err
		}
	}
	done := sp.Block("agg.mu")
	a.mu.Lock()
	done()
	defer a.mu.Unlock()
	return a.cachedDirectives(nodeID)
}

// decoded is one member envelope after the lock-free half of handling:
// every payload unmarshalled, every static vet check already run. bad
// flags carry the vet verdicts into apply, which executes them under a.mu
// in arrival order — so the first bad item still quarantines the sender
// and drops the rest of its batch, exactly as the single-phase shape did.
type decoded struct {
	kind   MsgKind // the envelope's: a Hello registers (maybe a mid-campaign join), the rest carry a batch
	nodeID string

	reports []vettedReport
	dbs     []vettedDB
	recs    []vettedRec
}

type vettedReport struct {
	rep RunReport
	bad bool // failed checkReportStatic
}

type vettedDB struct {
	db  *daikon.DB
	bad bool // failed checkLearnDBStatic
}

type vettedRec struct {
	rec  *replay.Recording
	raw  []byte
	pc   uint32
	skip bool // not a failing run: dropped silently, no verdict
	bad  bool // failed checkRecordingStatic
}

// decode is handle's lock-free phase: decode the envelope and bind its
// sender (decodeRequest, shared with the manager), then unmarshal and
// statically vet the batch it carries using only immutable config (the
// image, VetReports). The one piece of mutable state it reads is the
// sender's quarantine flag, through a short a.mu peek, so a quarantined
// member's traffic still costs the region a map lookup rather than
// unmarshal work; the peek is advisory (apply re-checks under the lock),
// it only avoids wasted decoding.
func (a *Aggregator) decode(env Envelope, bound *string, sp *obs.Span) (decoded, error) {
	sender, b, err := decodeRequest(env, bound)
	if err != nil {
		return decoded{}, err
	}
	msg := decoded{kind: env.Kind, nodeID: sender}
	if b == nil {
		return msg, nil
	}
	if batchAggregated(b) {
		return decoded{}, fmt.Errorf("community: aggregator %s cannot relay an aggregated batch", a.conf.ID)
	}
	// The learn span covers the aggregator's share of the learning stage —
	// the lock-free unmarshal and vet of the batch's uploads — and a
	// quarantine drop too: a rejected upload is still the learning stage
	// doing its (cheap) work.
	var lsp *obs.Span
	if len(b.LearnDBs) > 0 {
		lsp = a.tr.Start("learn")
		defer lsp.Finish()
	}
	if a.peekQuarantined(msg.nodeID, sp) {
		return msg, nil
	}
	// Decode every payload before buffering anything, as the manager's
	// handleBatch does: a malformed item rejects the batch whole rather
	// than shipping its earlier items upstream half-applied.
	for _, raw := range b.LearnDBs {
		db, err := daikon.UnmarshalDB(raw)
		if err != nil {
			return decoded{}, err
		}
		msg.dbs = append(msg.dbs, a.vetDB(db))
	}
	lsp.Finish()
	for _, raw := range b.Recordings {
		rec, err := replay.Unmarshal(raw)
		if err != nil {
			return decoded{}, err
		}
		msg.recs = append(msg.recs, a.vetRecording(rec, raw))
	}
	for i := range b.Reports {
		if b.Reports[i].NodeID != b.NodeID {
			// A member batch may only report the member's own runs: a
			// report claiming a peer's identity is a framing attempt —
			// under VetReports its sanity-check verdict would land on the
			// named peer — and is dropped before any check can quarantine
			// anyone.
			a.cRejects.Inc()
			continue
		}
		msg.reports = append(msg.reports, a.vetReport(&b.Reports[i]))
	}
	return msg, nil
}

// vetReport runs the static report check (when armed) outside a.mu.
func (a *Aggregator) vetReport(rep *RunReport) vettedReport {
	v := vettedReport{rep: *rep}
	if a.conf.VetReports {
		v.bad = checkReportStatic(a.conf.Image, rep) != ""
	}
	return v
}

// vetDB runs the static learning-database check (when armed) outside a.mu.
func (a *Aggregator) vetDB(db *daikon.DB) vettedDB {
	v := vettedDB{db: db}
	if a.conf.VetReports {
		v.bad = checkLearnDBStatic(a.conf.Image, db) != ""
	}
	return v
}

// vetRecording runs the static recording checks (when armed) outside a.mu.
func (a *Aggregator) vetRecording(rec *replay.Recording, raw []byte) vettedRec {
	v := vettedRec{rec: rec, raw: raw}
	pc, ok := rec.FailurePC()
	if !ok {
		v.skip = true // only failing runs are worth upstream bytes
		return v
	}
	v.pc = pc
	if a.conf.VetReports {
		v.bad = checkRecordingStatic(a.conf.Image, a.imgWire, rec, pc) != ""
	}
	return v
}

// peekQuarantined reads the sender's quarantine flag under a short a.mu
// hold. Advisory only — see decode.
func (a *Aggregator) peekQuarantined(nodeID string, sp *obs.Span) bool {
	done := sp.Block("agg.mu")
	a.mu.Lock()
	done()
	q := a.quarantined[nodeID]
	a.mu.Unlock()
	return q
}

// apply is handle's locked phase: fold one decoded envelope into the
// flush buffers and report whether a flush is now due — the report buffer
// reached FlushEvery, or a new member joined mid-campaign (it must be
// registered upstream before it leaves with real directives — §3's
// protection without exposure must survive the cache tier; cold-start
// attaches, before any flush, register locally: the whole region is new
// and flushes soon anyway). The flush itself happens back in handle,
// after a.mu is released, so members on other connections never stall
// behind the upstream round trip; epoch is the snapshot epoch the message
// was buffered under, letting that flush skip the round trip when a
// concurrent one already swept the buffers (see flushIfDue).
func (a *Aggregator) apply(msg decoded, sp *obs.Span) (nodeID string, epoch uint64, needFlush bool, err error) {
	done := sp.Block("agg.mu")
	a.mu.Lock()
	done()
	defer a.mu.Unlock()
	epoch = a.epoch
	if msg.kind == MsgHello {
		// Mid-campaign means a flush snapshot has been taken (epoch > 0),
		// not that one has completed: a joiner arriving while the very
		// first flush's round trip is in flight is already too late for
		// its snapshot and needs a flush of its own.
		_, known := a.nodes[msg.nodeID]
		a.nodes[msg.nodeID] = true
		return msg.nodeID, epoch, !known && epoch > 0, nil
	}
	a.nodes[msg.nodeID] = true
	for i := range msg.dbs {
		a.bufferLearnVetted(msg.nodeID, &msg.dbs[i])
	}
	for i := range msg.reports {
		a.bufferReportVetted(msg.nodeID, &msg.reports[i])
	}
	for i := range msg.recs {
		a.bufferRecordingVetted(msg.nodeID, &msg.recs[i])
	}
	due := false
	if msg.kind == MsgRunReport || msg.kind == MsgBatch {
		due = a.flushDueLocked()
	}
	return msg.nodeID, epoch, due, nil
}

// cachedDirectives answers a member from the per-node cache. A member the
// cache has never seen gets the empty directive set at sequence 0 — NOT
// the cached sequence: the member is about to run without this phase's
// patches, and stamping its reports with the current sequence would let an
// unprotected newcomer's failure demote a community-adopted repair. Its
// real directives arrive with the next flush. Called with a.mu held.
func (a *Aggregator) cachedDirectives(nodeID string) (Envelope, error) {
	return NewEnvelope(MsgDirectives, a.dirs[nodeID])
}

// bufferReportVetted queues one pre-vetted run report for the next flush,
// dropping it if the sender is quarantined and executing a failed vet
// verdict. Called with a.mu held.
func (a *Aggregator) bufferReportVetted(nodeID string, v *vettedReport) {
	if a.quarantined[nodeID] {
		return
	}
	if v.bad {
		a.quarantineLocked(nodeID)
		return
	}
	a.reports = append(a.reports, v.rep)
}

// bufferLearnVetted folds one pre-decoded, pre-vetted learning upload into
// the region database. Called with a.mu held.
func (a *Aggregator) bufferLearnVetted(nodeID string, v *vettedDB) {
	if a.quarantined[nodeID] {
		return
	}
	if v.bad {
		a.quarantineLocked(nodeID)
		return
	}
	if a.learn == nil {
		a.learn = v.db
	} else {
		a.learn.Merge(v.db, daikon.DefaultMaxOneOf)
	}
	a.learnCount++
}

// bufferRecordingVetted queues one pre-decoded, pre-vetted failing-run
// recording (v.raw is its wire form, forwarded upstream verbatim),
// deduplicating per failure location — the first capture wins; the
// manager's farm only needs one copy of a deterministic failure. The edge
// ran every static recording check outside the lock (replays are the
// manager's): a recording of some other binary, one claiming an
// out-of-range failure, or one with an implausible step budget never
// travels upstream. Called with a.mu held.
func (a *Aggregator) bufferRecordingVetted(nodeID string, v *vettedRec) {
	if a.quarantined[nodeID] || v.skip {
		return
	}
	if v.bad {
		a.quarantineLocked(nodeID)
		return
	}
	if _, dup := a.recRaw[v.pc]; dup {
		return
	}
	a.recRaw[v.pc] = v.raw
	a.recFrom[v.pc] = nodeID
}

// quarantineLocked records an edge verdict: the node's traffic is dropped
// here from now on, and the manager learns of the verdict at the next
// flush. Called with a.mu held.
func (a *Aggregator) quarantineLocked(nodeID string) {
	if a.quarantined[nodeID] {
		return
	}
	a.quarantined[nodeID] = true
	a.newlyQuar = append(a.newlyQuar, nodeID)
}

// flushDueLocked reports whether the report buffer has reached the
// configured auto-flush size. Called with a.mu held.
func (a *Aggregator) flushDueLocked() bool {
	return a.conf.FlushEvery > 0 && len(a.reports) >= a.conf.FlushEvery
}

// flushSnapshot is one flush's worth of buffered state, taken (and
// cleared) under a.mu so the upstream round trip can run outside the lock.
type flushSnapshot struct {
	members    []string // sorted member IDs at snapshot time
	reports    []RunReport
	learn      *daikon.DB
	learnCount int
	recRaw     map[uint32][]byte
	recFrom    map[uint32]string
	newlyQuar  []string
}

// takeLocked moves the buffered state into a snapshot, leaving the buffers
// empty. Called with a.mu held.
func (a *Aggregator) takeLocked() flushSnapshot {
	snap := flushSnapshot{
		members:    make([]string, 0, len(a.nodes)),
		reports:    a.reports,
		learn:      a.learn,
		learnCount: a.learnCount,
		recRaw:     a.recRaw,
		recFrom:    a.recFrom,
		newlyQuar:  a.newlyQuar,
	}
	for id := range a.nodes {
		snap.members = append(snap.members, id)
	}
	sort.Strings(snap.members)
	a.reports = nil
	a.learn = nil
	a.learnCount = 0
	a.recRaw = make(map[uint32][]byte)
	a.recFrom = make(map[uint32]string)
	a.newlyQuar = nil
	a.epoch++
	return snap
}

// envelope compacts a snapshot into its upstream envelope, numbered seq.
func (snap *flushSnapshot) envelope(aggID string, seq uint64) (Envelope, error) {
	b := Batch{
		NodeID:      aggID,
		Aggregated:  true,
		NodeIDs:     snap.members,
		Reports:     snap.reports,
		Quarantined: snap.newlyQuar,
		FlushSeq:    seq,
	}
	var pcs []uint32
	for pc := range snap.recRaw {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		b.Recordings = append(b.Recordings, snap.recRaw[pc])
		b.RecordingFrom = append(b.RecordingFrom, snap.recFrom[pc])
	}
	if snap.learnCount > 0 {
		raw, err := snap.learn.Marshal()
		if err != nil {
			return Envelope{}, err
		}
		b.LearnDBs = [][]byte{raw}
	}
	return NewEnvelope(MsgBatch, b)
}

// Flush compacts everything buffered since the last flush into one
// upstream MsgBatch — the region's reports in arrival order, its learning
// uploads pre-merged into a single database, its recordings deduplicated
// per failure location, and any edge quarantine verdicts — and refreshes
// the per-member directive cache from the manager's DirectivesSet reply.
// A flush with nothing buffered still runs: it registers new members and
// pulls fresh directives (the region's heartbeat).
//
// The buffers are snapshotted and cleared under a.mu, but the upstream
// round trip itself runs outside it, so member connections keep being
// served while the manager works. A flush that gets no reply stays
// pending as its numbered envelope, and the next flush re-sends it
// unchanged before taking a new snapshot: the manager's FlushSeq dedupe
// applies it exactly once, whether or not a failed attempt landed.
func (a *Aggregator) Flush() error {
	sp := a.tr.Start("flush")
	defer sp.Finish()
	done := sp.Block("flushmu")
	a.flushMu.Lock()
	done()
	defer a.flushMu.Unlock()
	if err := a.deliverPending(sp); err != nil {
		return err
	}
	return a.flushHoldingFlushMu(sp)
}

// flushIfDue is the auto-flush entry point (FlushEvery reached, or a
// mid-campaign join): it flushes unless the state buffered at epoch has
// already been DELIVERED — by a concurrent flush, or by the pending one
// re-sent here — in a snapshot taken after the triggering message was
// buffered (snapshot number > epoch), whose whole round trip completed,
// reply merge included. The directive cache then already reflects the
// buffered state; another round trip would only ship a redundant
// near-empty envelope, inflating the very upstream count the hierarchy
// minimizes.
func (a *Aggregator) flushIfDue(epoch uint64) error {
	sp := a.tr.Start("flush")
	defer sp.Finish()
	done := sp.Block("flushmu")
	a.flushMu.Lock()
	done()
	defer a.flushMu.Unlock()
	if err := a.deliverPending(sp); err != nil {
		return err
	}
	done = sp.Block("agg.mu")
	a.mu.Lock()
	done()
	carried := a.delivered > epoch
	a.mu.Unlock()
	if carried {
		return nil
	}
	return a.flushHoldingFlushMu(sp)
}

// flushHoldingFlushMu takes a new snapshot, makes it the pending flush and
// delivers it. Called with a.flushMu held (and a.mu NOT held).
func (a *Aggregator) flushHoldingFlushMu(sp *obs.Span) error {
	done := sp.Block("agg.mu")
	a.mu.Lock()
	done()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("community: aggregator %s is closed", a.conf.ID)
	}
	snap := a.takeLocked()
	seq := a.epoch
	a.mu.Unlock()

	// Every field of a snapshot encodes, so an error here is a bug; the
	// snapshot goes with it.
	env, err := snap.envelope(a.conf.ID, seq)
	if err != nil {
		return err
	}
	a.pending, a.pendingSeq = env, seq
	return a.deliverPending(sp)
}

// deliverPending sends the pending flush, if there is one, and merges the
// manager's DirectivesSet reply into the directive cache. Called with
// a.flushMu held (and a.mu NOT held).
func (a *Aggregator) deliverPending(sp *obs.Span) error {
	if a.pendingSeq == 0 {
		return nil
	}
	var set *DirectivesSet
	err := a.up.roundTrip(sp, a.pending, true, func(reply Envelope) error {
		if reply.Kind != MsgDirectivesSet {
			return fmt.Errorf("community: aggregator %s: unexpected reply %v", a.conf.ID, reply.Kind)
		}
		v, err := decodePayload(MsgDirectivesSet, reply.Payload)
		if err != nil {
			return err
		}
		set = v.(*DirectivesSet)
		return nil
	})
	if err != nil {
		return err
	}

	done := sp.Block("agg.mu")
	a.mu.Lock()
	done()
	for id, d := range set.ByNode {
		a.dirs[id] = d
	}
	// delivered advances only now, after the reply refreshed the directive
	// cache: flushIfDue's skip promises BOTH that the buffered data went
	// upstream and that the cache reflects it (a mid-campaign joiner's
	// skipped flush must still leave it with real directives).
	a.delivered = a.pendingSeq
	a.cFlushes.Inc()
	a.mu.Unlock()
	a.pending, a.pendingSeq = Envelope{}, 0
	return nil
}

// UpstreamEnvelopes returns how many envelopes this aggregator has sent to
// the manager — the count the hierarchy exists to keep small.
func (a *Aggregator) UpstreamEnvelopes() int {
	return int(a.cUpstream.Value())
}

// Flushes returns how many flushes have completed.
func (a *Aggregator) Flushes() int {
	return int(a.cFlushes.Value())
}

// ObsSnapshot captures the aggregator's telemetry without taking a.mu.
func (a *Aggregator) ObsSnapshot() obs.Snapshot {
	return a.reg.Snapshot()
}

// Members returns the sorted IDs of every member node seen.
func (a *Aggregator) Members() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.nodes))
	for id := range a.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Rejects returns how many member-batch reports were dropped for claiming
// a NodeID other than the sending member's own (attempted framing).
func (a *Aggregator) Rejects() int {
	return int(a.cRejects.Value())
}

// QuarantinedNodes returns the sorted IDs of members quarantined at this
// edge.
func (a *Aggregator) QuarantinedNodes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.quarantined))
	for id := range a.quarantined {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Close simulates the aggregator failing: the upstream connection and
// every member connection are torn down, and all buffered (unflushed)
// state is lost. Members detect the dead connection and fail over to a
// sibling aggregator with Node.Attach; nothing they lose is
// unrecoverable, because all durable community state lives at the manager
// keyed by node ID.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	_ = a.up.close()
	a.served.sever(true)
	return nil
}
