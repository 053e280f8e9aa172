package community

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/replay"
	"repro/internal/vm"
)

// SoakAttack is one recurring failure scenario a soak presents to every
// node each round.
type SoakAttack struct {
	Label string // human label, e.g. the Bugzilla id
	Input []byte // the attack page presented to every node
}

// ChurnConfig schedules membership churn and infrastructure failure into a
// soak. All churn is deterministic for a fixed config: the same nodes
// crash, rejoin, and fail over in the same order every run.
type ChurnConfig struct {
	// CrashPerRound crashes that many honest nodes at the start of every
	// round from round 2 on (rotating through the population, recorders
	// excepted); each crashed node misses the round, then re-attaches at
	// the start of the next one — to a different aggregator than the one
	// it crashed under, when there is more than one.
	CrashPerRound int
	// JoinPerRound adds that many brand-new nodes at the start of every
	// round from round 2 on — the §3 "protection without exposure"
	// population: they must end up holding the adopted repairs without
	// ever having been attacked unprotected.
	JoinPerRound int
	// AggregatorCrashRound fails the first aggregator at the start of
	// that round (0 = never; requires at least two aggregators). Its
	// members fail over to the surviving siblings and its unflushed
	// buffers are lost — nothing durable is, because all community state
	// lives at the manager keyed by node ID.
	AggregatorCrashRound int
	// RootCrashRound fails the root leader at the start of that round
	// (0 = never; requires RootReplicas >= 1): every root connection is
	// severed, the senior follower is promoted, and clients re-dial into
	// the new leader through their retry path.
	RootCrashRound int
}

// SoakConfig drives a large-N community soak: Nodes node managers share
// one manager — flat, or through a tier of Aggregators — every node
// presents every attack once per round, and the soak reports when the
// whole community has converged on one adopted repair per defect.
type SoakConfig struct {
	// Image is the protected binary every member runs.
	Image *image.Image
	// Seed is the pre-learned invariant database (the Blue Team run).
	Seed *daikon.DB
	// BootstrapInputs populate the manager's CFG database.
	BootstrapInputs [][]byte

	// Nodes is the community size; default 100.
	Nodes int
	// Rounds bounds the soak; default 8. The soak stops early once every
	// defect has converged.
	Rounds int
	// Attacks are the failure scenarios; at least one is required.
	Attacks []SoakAttack
	// Benign inputs are interleaved one per round (rotating) so adopted
	// repairs keep being exercised on legitimate traffic; may be empty.
	Benign [][]byte

	// Aggregators inserts a tier of that many aggregators between the
	// nodes and the manager (0 = the flat star). Nodes attach
	// round-robin; aggregators flush once per round (or earlier, per
	// FlushEvery), so central-manager envelope load scales with the
	// aggregator count instead of the node count.
	Aggregators int
	// FlushEvery is the aggregators' auto-flush threshold in buffered run
	// reports; 0 flushes once per round only.
	FlushEvery int

	// Adversaries turns that many of the Nodes into adversarial members
	// exercising the §5 attack surface: even-indexed adversaries spoof
	// (failure reports and learning uploads with PCs outside the code
	// range — caught by the edge sanity checks), odd-indexed ones forge
	// (recordings of healthy runs relabelled as failures — caught by the
	// manager's farm vetting). Each keeps sending well-formed traffic
	// after its first tamper; the community must quarantine every
	// adversary, keep their later traffic ignored, and still converge.
	// Setting this forces VetReports on.
	Adversaries int
	// VetReports arms the sanity checks and quarantine machinery at both
	// tiers even without adversaries.
	VetReports bool

	// Churn schedules node crashes, rejoins, fresh joins, and an
	// aggregator failover; nil runs an immortal population.
	Churn *ChurnConfig

	// Chaos wraps every transport in a seeded FaultConn injecting drops,
	// delays, duplicates, mid-flush disconnects, and partition windows,
	// and arms the resilient client path (Retry) on every member and
	// aggregator. Nil runs the fault-free soak, byte-identical to the
	// pre-chaos behavior.
	Chaos *ChaosConfig
	// Retry overrides the retry policy the chaos path arms (nil =
	// DefaultRetry seeded from Chaos.Seed). Resilience is also armed —
	// chaos or not — when the churn schedule crashes the root, since the
	// clients must survive their severed connections.
	Retry *RetryPolicy
	// RootReplicas replicates the root: a leader plus this many hot
	// followers applying the same envelope stream (see RootGroup). 0 runs
	// the single unreplicated manager.
	RootReplicas int

	// Batched selects MsgBatch shipping (one round trip per node per
	// round) instead of per-run RunOnce messaging.
	Batched bool
	// Recorders is how many nodes capture failing runs as recordings
	// (default 1: the manager's replay fast path needs only one copy of
	// a deterministic failure; more recorders only add upload weight).
	Recorders int
	// ReplayWorkers bounds the manager's replay farm; 0 (the default)
	// and negative values select GOMAXPROCS. The fast path is always on
	// in a soak: converging a large community on live recurrences alone
	// is the cost model the soak exists to avoid.
	ReplayWorkers int
	// StackScope is the candidate-selection scope (default 1).
	StackScope int
	// CheckRuns and Bonus plumb through to the manager's pipeline
	// configuration (0 = the defaults, 2 and 1).
	CheckRuns int
	Bonus     int // see CheckRuns

	// Obs, when set, is the telemetry registry the whole rig records
	// into — the manager, every aggregator, and every member node share
	// it, so one snapshot holds the full per-stage pipeline table. The
	// final snapshot is attached to the SoakReport. Nil disables
	// telemetry (the soak behaves identically either way).
	Obs *obs.Registry
	// PprofLabels additionally tags traced goroutines with a pprof
	// "stage" label for the lifetime of each span, so CPU profiles taken
	// during the soak can be cut per pipeline stage. Requires Obs.
	PprofLabels bool

	// ParallelMembers runs each round's member turns concurrently, one
	// goroutine per alive member, instead of sequentially. This is the
	// contended deployment shape — many nodes hammering the tier at
	// once — and it surrenders run-to-run determinism: arrival order at
	// the aggregators and the manager varies, so adopted repair IDs and
	// message counts may differ between identical runs. Default off; the
	// library's determinism guarantees only hold with it off.
	ParallelMembers bool
	// ParallelFlush flushes the aggregator tier concurrently at the end
	// of each round instead of serially. Same determinism caveat as
	// ParallelMembers.
	ParallelFlush bool
}

// SoakDefect is one row of the convergence table.
type SoakDefect struct {
	Label     string `json:"label"`      // the attack's human label
	FailurePC uint32 `json:"failure_pc"` // ground-truth failure location (probed)
	Monitor   string `json:"monitor"`    // monitor that detects the attack
	// Adopted is the repair the community converged on ("" if it never
	// converged).
	Adopted string `json:"adopted"`
	// Rounds is the presentations-per-node needed before every node held
	// the same adopted repair (0 if never).
	Rounds int `json:"rounds"`
	// Agree is how many eligible nodes (alive, not quarantined) held the
	// adopted repair at the round the defect converged (or at the final
	// round, if it never did).
	Agree     int  `json:"agree"`
	Converged bool `json:"converged"` // the defect held full agreement at the last check
}

// SoakReport is the machine-readable outcome of one soak.
type SoakReport struct {
	Nodes       int  `json:"nodes"`       // initial community size
	Aggregators int  `json:"aggregators"` // aggregator tier size (0 = flat)
	RoundsRun   int  `json:"rounds_run"`  // rounds actually executed
	Batched     bool `json:"batched"`     // MsgBatch shipping vs per-run messaging
	// Messages is how many envelopes the central manager handled —
	// everything that reached it upstream. The flat/hierarchical and
	// batched/per-message comparisons of this number are the point of
	// the batching protocol and the aggregator tier.
	Messages   int `json:"messages"`
	Batches    int `json:"batches"`     // MsgBatch envelopes among Messages
	ReplayRuns int `json:"replay_runs"` // offline replays (vetting + checking + farm)
	// Quarantined is the sorted list of nodes the community quarantined;
	// QuarantinedAdoptions counts adopted repairs whose deciding report
	// came from a quarantined node (the tamper-resistance invariant:
	// always zero).
	Quarantined          []string `json:"quarantined,omitempty"`
	QuarantinedAdoptions int      `json:"quarantined_adoptions"` // see Quarantined
	// Churn accounting.
	Crashes             int `json:"crashes,omitempty"`              // node crashes executed
	Rejoins             int `json:"rejoins,omitempty"`              // crashed nodes that re-attached
	Joins               int `json:"joins,omitempty"`                // fresh nodes joined mid-campaign
	AggregatorFailovers int `json:"aggregator_failovers,omitempty"` // aggregator crashes executed
	// Fault-tolerance accounting (chaos / replicated-root soaks): proof
	// the injected faults actually fired and were absorbed.
	Retries          int `json:"retries,omitempty"`            // round trips retried (nodes + aggregators)
	Reconnects       int `json:"reconnects,omitempty"`         // fresh connections dialed past faults
	DroppedEnvelopes int `json:"dropped_envelopes,omitempty"`  // envelopes the chaos schedule silently lost
	RootFailovers    int `json:"root_failovers,omitempty"`     // root leader crashes survived
	ReplayLogEntries int `json:"replay_log_entries,omitempty"` // envelopes in the root replication log
	// LearnInvariants is the invariant count in the manager's merged
	// learn DB at campaign end — the learn-DB outcome the sim-vs-live
	// differential oracle compares.
	LearnInvariants int          `json:"learn_invariants"`
	Defects         []SoakDefect `json:"defects"`   // per-defect convergence rows
	Converged       bool         `json:"converged"` // every defect converged
	// Obs is the final telemetry snapshot (nil unless SoakConfig.Obs was
	// set): every counter and per-stage wall/on-CPU/blocked row the rig
	// recorded.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// probeFailurePC runs one input on a bare monitored machine (the same
// full detector set the nodes run) to learn the failure location an
// attack produces — the key the soak uses to match manager cases to
// attack labels.
func probeFailurePC(img *image.Image, input []byte) (uint32, string, error) {
	plugins, shadow, hang := replay.AllMonitors().Plugins()
	machine, err := vm.New(vm.Config{
		Image:   img,
		Input:   input,
		Plugins: plugins,
	})
	if err != nil {
		return 0, "", err
	}
	shadow.Install(machine)
	hang.Install(machine)
	res := machine.Run()
	if res.Failure == nil {
		return 0, "", fmt.Errorf("input did not fail under the monitors (outcome %v)", res.Outcome)
	}
	return res.Failure.PC, res.Failure.Monitor, nil
}

// repairSpecID reconstructs the stable repair identifier a RepairSpec
// denotes, so node directives can be compared for agreement.
func repairSpecID(spec *RepairSpec) string {
	inv := spec.Invariant
	r := repair.Repair{
		Inv:      &inv,
		Strategy: spec.Strategy,
		Value:    spec.Value,
		SPDelta:  spec.SPDelta,
		PC:       spec.PC,
		Depth:    spec.Depth,
	}
	return r.ID()
}

// soakMember is one community member and its soak-side role.
type soakMember struct {
	n   *Node
	agg int // attached aggregator index; -1 = direct to the manager
	// adversary marks a tampering member; forger selects the
	// forged-recording flavor (vs the spoofed-report flavor); advIndex
	// varies the tamper so concurrent adversaries don't mask each other.
	adversary bool
	forger    bool
	advIndex  int
	tampered  bool // the first-tamper message has been sent
	crashed   bool
}

// soakRig is the assembled community — one root (a single manager, or a
// replicated RootGroup), an optional aggregator tier, and the member
// population — and the campaign schedule that drives it. Both entry
// points run this one rig; they differ only in the transport connecting
// clients to tiers and in whether executions go through a memo.
type soakRig struct {
	conf    SoakConfig
	connect func(endpoint) Conn // the transport: pipeTransport or loopback
	memo    *execMemo           // handed to every member; nil runs every execution for real
	defects []SoakDefect
	mgr     *Manager   // the unreplicated root (nil when root is set)
	root    *RootGroup // the replicated root (nil when mgr is set)
	aggs    []*Aggregator
	aggDead []bool
	members []*soakMember
	report  *SoakReport
	tr      *obs.Tracer   // shared tracer (nil when telemetry is off)
	reg     *obs.Registry // chaos/retry counter registry (may be nil)
	retry   *RetryPolicy  // non-nil arms member/aggregator resilience

	crashCursor int
	joinSeq     int
	connSeq     int64 // FaultConn stream numbers (atomic)

	// steps counts the schedule's steps: member turns, aggregator flushes
	// and convergence checks. A simulated soak meters them as sim.events,
	// and its member turns as sim.turns; RunSoak leaves both counters nil.
	steps  int
	cSteps *obs.Counter
	cTurns *obs.Counter
}

// newSoakRig validates conf, fills its defaults, probes each attack's
// failure location, and builds the root; run builds the rest.
func newSoakRig(conf SoakConfig, connect func(endpoint) Conn) (*soakRig, error) {
	if conf.Image == nil {
		return nil, fmt.Errorf("community: soak needs an image")
	}
	if len(conf.Attacks) == 0 {
		return nil, fmt.Errorf("community: soak needs at least one attack")
	}
	if conf.Nodes <= 0 {
		conf.Nodes = 100
	}
	if conf.Rounds <= 0 {
		conf.Rounds = 8
	}
	if conf.Recorders <= 0 {
		conf.Recorders = 1
	}
	if conf.Adversaries < 0 || conf.Adversaries >= conf.Nodes {
		return nil, fmt.Errorf("community: %d adversaries need a larger community than %d", conf.Adversaries, conf.Nodes)
	}
	if conf.Adversaries > 0 {
		conf.VetReports = true
	}
	if honest := conf.Nodes - conf.Adversaries; conf.Recorders > honest {
		conf.Recorders = honest
	}
	if conf.Aggregators < 0 || conf.Aggregators > conf.Nodes {
		return nil, fmt.Errorf("community: aggregator count %d out of range", conf.Aggregators)
	}
	if conf.Churn != nil && conf.Churn.AggregatorCrashRound > 0 && conf.Aggregators < 2 {
		return nil, fmt.Errorf("community: aggregator failover needs at least 2 aggregators")
	}
	if conf.Churn != nil && conf.Churn.RootCrashRound > 0 && conf.RootReplicas < 1 {
		return nil, fmt.Errorf("community: root failover needs at least 1 root replica")
	}
	if conf.Chaos != nil {
		if err := conf.Chaos.validate(); err != nil {
			return nil, err
		}
		if conf.Obs == nil {
			// The chaos counters are the run's proof its faults fired; they
			// need a live registry even when the caller asked for no
			// telemetry.
			conf.Obs = obs.New()
		}
	}
	workers := conf.ReplayWorkers
	if workers == 0 {
		workers = -1
	}

	// Ground truth: which failure location each attack produces.
	defects := make([]SoakDefect, len(conf.Attacks))
	byPC := make(map[uint32]int, len(conf.Attacks))
	for i, atk := range conf.Attacks {
		pc, mon, err := probeFailurePC(conf.Image, atk.Input)
		if err != nil {
			return nil, fmt.Errorf("attack %s: %w", atk.Label, err)
		}
		if j, dup := byPC[pc]; dup {
			return nil, fmt.Errorf("attacks %s and %s share failure location %#x",
				conf.Attacks[j].Label, atk.Label, pc)
		}
		defects[i] = SoakDefect{Label: atk.Label, FailurePC: pc, Monitor: mon}
		byPC[pc] = i
	}

	tr := obs.NewTracer(conf.Obs)
	if conf.PprofLabels {
		tr = tr.WithPprofLabels()
	}
	// Resilience is armed by chaos, and also by a root-crash schedule on
	// its own: the crash severs every root connection, and only the retry
	// path's re-dial reaches the promoted leader.
	retry := conf.Retry
	if retry == nil && (conf.Chaos != nil ||
		(conf.Churn != nil && conf.Churn.RootCrashRound > 0)) {
		var seed int64
		if conf.Chaos != nil {
			seed = conf.Chaos.Seed
		}
		retry = DefaultRetry(seed)
	}
	r := &soakRig{
		conf:    conf,
		connect: connect,
		defects: defects,
		tr:      tr,
		reg:     conf.Obs,
		retry:   retry,
		report: &SoakReport{
			Nodes:       conf.Nodes,
			Aggregators: conf.Aggregators,
			Batched:     conf.Batched,
		},
	}

	mgrConf := ManagerConfig{
		Image:              conf.Image,
		Seed:               conf.Seed,
		BootstrapInputs:    conf.BootstrapInputs,
		StackScope:         conf.StackScope,
		CheckRuns:          conf.CheckRuns,
		Bonus:              conf.Bonus,
		ReplayWorkers:      workers,
		VetReports:         conf.VetReports,
		TrustedAggregators: r.aggIDs(),
		Obs:                tr,
	}
	var err error
	if conf.RootReplicas > 0 {
		r.root, err = NewRootGroup(mgrConf, conf.RootReplicas, conf.Obs)
	} else {
		r.mgr, err = NewManager(mgrConf)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// aggIDs names the aggregator tier. The names are fixed up front: under
// VetReports the manager only accepts aggregated batches from this
// provisioned list, so an adversarial member cannot impersonate an
// aggregator.
func (r *soakRig) aggIDs() []string {
	ids := make([]string, r.conf.Aggregators)
	for i := range ids {
		ids[i] = fmt.Sprintf("agg%02d", i)
	}
	return ids
}

// close tears the community down: every member connection, every
// surviving aggregator, and the replicated root's connections.
func (r *soakRig) close() {
	for _, m := range r.members {
		_ = m.n.Close()
	}
	for i, a := range r.aggs {
		if !r.aggDead[i] {
			_ = a.Close()
		}
	}
	if r.root != nil {
		_ = r.root.Close()
	}
}

// rootMgr is the manager the soak's accounting and convergence checks
// read: the group's current leader, or the single manager.
func (r *soakRig) rootMgr() *Manager {
	if r.root != nil {
		return r.root.Leader()
	}
	return r.mgr
}

// home is the tier a client attached to aggregator agg connects to: that
// aggregator, or the root when agg < 0.
func (r *soakRig) home(agg int) endpoint {
	switch {
	case agg >= 0:
		return r.aggs[agg].endpoint()
	case r.root != nil:
		return r.root.endpoint()
	}
	return r.mgr.endpoint()
}

// dial opens a fresh client connection to the tier at home(agg), through
// the chaos wrapper when armed. Each connection gets its own stream
// number, so reconnects draw fresh — but still seed-determined — fault
// schedules.
func (r *soakRig) dial(agg int) Conn {
	c := r.connect(r.home(agg))
	if r.conf.Chaos == nil {
		return c
	}
	fc, err := NewFaultConn(c, r.conf.Chaos, atomic.AddInt64(&r.connSeq, 1), r.reg)
	if err != nil {
		return c // config was validated up front; unreachable
	}
	return fc
}

// dialRoot is the aggregators' upstream dial and their Redial path,
// which is how a re-dial lands on the promoted leader after a root
// failover.
func (r *soakRig) dialRoot() (Conn, error) { return r.dial(-1), nil }

// attach connects (or re-connects) a member to aggregator agg, or to the
// root when agg < 0.
func (r *soakRig) attach(m *soakMember, agg int) error {
	conn := r.dial(agg)
	m.agg = agg
	return m.n.Attach(conn)
}

// redialMember is a member's retry-path redial: a fresh connection to its
// current home — or, when that home aggregator has died, to the next
// alive sibling (the retry-path mirror of churn's explicit failover).
func (r *soakRig) redialMember(m *soakMember) (Conn, error) {
	if m.agg >= 0 && (m.agg >= len(r.aggs) || r.aggDead[m.agg]) {
		m.agg = r.nextAliveAgg(m.agg)
	}
	return r.dial(m.agg), nil
}

// newMember creates a member node: traced, memoized, and resilient when
// the soak runs one of the fault-tolerant shapes.
func (r *soakRig) newMember(id string) *soakMember {
	m := &soakMember{n: NewNode(id, r.conf.Image, nil), agg: -1}
	m.n.Obs = r.tr
	m.n.memo = r.memo
	if r.retry != nil {
		m.n.EnableResilience(r.retry, func() (Conn, error) { return r.redialMember(m) }, r.reg)
	}
	return m
}

// nextAliveAgg picks the aggregator a re-attaching member fails over to:
// the next alive sibling after the one it crashed under (or the same one,
// when it is the only survivor). Returns -1 in flat topology.
func (r *soakRig) nextAliveAgg(after int) int {
	if len(r.aggs) == 0 {
		return -1
	}
	for i := 1; i <= len(r.aggs); i++ {
		cand := (after + i) % len(r.aggs)
		if !r.aggDead[cand] {
			return cand
		}
	}
	return -1
}

// step counts one step of the schedule.
func (r *soakRig) step() {
	r.steps++
	r.cSteps.Inc()
}

// RunSoak simulates a community of Nodes node managers sharing one
// manager over in-process pipes, one serving goroutine per connection —
// flat, or through an aggregator tier. Each round, every alive node
// presents every attack (plus a rotating benign input) and reports —
// batched or per message; the aggregators then flush their compacted
// batches upstream. After each round the soak syncs every eligible node
// and checks convergence: the manager holds an adopted repair for every
// defect and every eligible node's directives carry the same repair.
// Nodes run sequentially in a fixed order and churn follows a fixed
// schedule, so a soak is deterministic for a fixed config.
func RunSoak(conf SoakConfig) (*SoakReport, error) {
	r, err := newSoakRig(conf, pipeTransport)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.run()
}

// SimReport is a simulated soak's outcome: the SoakReport RunSoak would
// produce for the same config, plus the simulation's own accounting.
type SimReport struct {
	SoakReport

	// Events counts the schedule's steps: member turns, aggregator
	// flushes and convergence checks.
	Events int `json:"sim_events"`
	// MemoHits counts executions answered from the execution memo.
	MemoHits int `json:"sim_memo_hits"`
	// MemoMisses counts memo-eligible executions that ran genuinely and
	// seeded an entry.
	MemoMisses int `json:"sim_memo_misses"`
	// GenuineRuns counts executions that were never memo-eligible
	// (failure recorders, learning assignments).
	GenuineRuns int `json:"sim_genuine_runs"`
}

// SimulateSoak runs RunSoak's campaign — the same rig and schedule,
// producing the same SoakReport — without a goroutine per connection:
// each client reaches its tier through a synchronous loopback that
// answers every envelope inline, and members that run the same input
// under the same directives share one execution through a memo. That is
// the shape for 100k nodes and beyond. The Parallel* shapes need real
// concurrency and are rejected.
func SimulateSoak(conf SoakConfig) (*SimReport, error) {
	if conf.ParallelMembers || conf.ParallelFlush {
		return nil, fmt.Errorf("community: a simulated soak is serial; the Parallel* shapes need real concurrency")
	}
	r, err := newSoakRig(conf, loopback)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.memo = newExecMemo(r.reg)
	r.cSteps = r.reg.Counter("sim.events")
	r.cTurns = r.reg.Counter("sim.turns")
	rep, err := r.run()
	if err != nil {
		return nil, err
	}
	return &SimReport{
		SoakReport:  *rep,
		Events:      r.steps,
		MemoHits:    r.memo.hits,
		MemoMisses:  r.memo.misses,
		GenuineRuns: r.memo.genuine,
	}, nil
}

// run builds the aggregator tier and the population, plays the rounds,
// and assembles the report.
func (r *soakRig) run() (*SoakReport, error) {
	conf := r.conf
	for _, id := range r.aggIDs() {
		upstream, err := r.dialRoot()
		if err != nil {
			return nil, err
		}
		agg, err := NewAggregator(AggregatorConfig{
			ID:         id,
			Image:      conf.Image,
			Upstream:   upstream,
			FlushEvery: conf.FlushEvery,
			VetReports: conf.VetReports,
			Obs:        r.tr,
			Retry:      r.retry,
			Redial:     r.dialRoot,
		})
		if err != nil {
			return nil, err
		}
		r.aggs = append(r.aggs, agg)
		r.aggDead = append(r.aggDead, false)
	}

	// The population: honest members first (the leading Recorders of them
	// capture failing runs), adversaries last.
	honest := conf.Nodes - conf.Adversaries
	for i := 0; i < conf.Nodes; i++ {
		var m *soakMember
		if i < honest {
			m = r.newMember(fmt.Sprintf("node%04d", i))
			m.n.RecordFailures = i < conf.Recorders
		} else {
			adv := i - honest
			m = r.newMember(fmt.Sprintf("adv%03d", adv))
			m.adversary = true
			m.forger = adv%2 == 1
			m.advIndex = adv
		}
		r.members = append(r.members, m)
		agg := -1
		if conf.Aggregators > 0 {
			agg = i % conf.Aggregators
		}
		if err := r.attach(m, agg); err != nil {
			return nil, err
		}
	}

	report := r.report
	for round := 1; round <= conf.Rounds; round++ {
		if err := r.churnStep(round); err != nil {
			return nil, err
		}

		inputs := make([][]byte, 0, len(conf.Attacks)+1)
		for _, atk := range conf.Attacks {
			inputs = append(inputs, atk.Input)
		}
		if len(conf.Benign) > 0 {
			inputs = append(inputs, conf.Benign[(round-1)%len(conf.Benign)])
		}
		if conf.ParallelMembers {
			// The contended shape: every alive member plays its turn at
			// once, so the aggregators and manager see the arrival
			// concurrency a real deployment produces.
			var wg sync.WaitGroup
			errs := make([]error, len(r.members))
			for i, m := range r.members {
				if m.crashed {
					continue
				}
				r.step()
				r.cTurns.Inc()
				wg.Add(1)
				go func(i int, m *soakMember) {
					defer wg.Done()
					errs[i] = r.memberTurn(m, inputs)
				}(i, m)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		} else {
			for _, m := range r.members {
				if m.crashed {
					continue
				}
				r.step()
				r.cTurns.Inc()
				if err := r.memberTurn(m, inputs); err != nil {
					return nil, err
				}
			}
		}
		if conf.ParallelFlush {
			var wg sync.WaitGroup
			errs := make([]error, len(r.aggs))
			for i, a := range r.aggs {
				if !r.aggDead[i] {
					r.step()
					wg.Add(1)
					go func(i int, a *Aggregator) {
						defer wg.Done()
						errs[i] = a.Flush()
					}(i, a)
				}
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		} else {
			for i, a := range r.aggs {
				if !r.aggDead[i] {
					r.step()
					if err := a.Flush(); err != nil {
						return nil, err
					}
				}
			}
		}
		report.RoundsRun = round

		// A churn soak runs its whole schedule: convergence must not just
		// be reached, it must hold while nodes crash, rejoin, and join
		// and aggregators fail over. Without churn the population is
		// static and the first full agreement is final.
		r.step()
		if r.converged(round) && conf.Churn == nil {
			break
		}
	}

	root := r.rootMgr()
	report.Messages = root.Messages()
	report.Batches = root.Batches()
	report.ReplayRuns = root.ReplayRuns()
	quarantined := root.Quarantined()
	for id := range quarantined {
		report.Quarantined = append(report.Quarantined, id)
	}
	sort.Strings(report.Quarantined)
	for _, by := range root.Adoptions() {
		if _, q := quarantined[by]; q {
			report.QuarantinedAdoptions++
		}
	}
	if conf.Obs != nil {
		report.Retries = int(conf.Obs.Counter("node.retries").Value() + conf.Obs.Counter("agg.retries").Value())
		report.Reconnects = int(conf.Obs.Counter("node.reconnects").Value() + conf.Obs.Counter("agg.redials").Value())
		report.DroppedEnvelopes = int(conf.Obs.Counter("chaos.dropped").Value())
	}
	if r.root != nil {
		report.ReplayLogEntries = r.root.LogLen()
	}
	report.LearnInvariants = root.InvariantCount()
	report.Converged = true
	for i := range r.defects {
		if !r.defects[i].Converged {
			report.Converged = false
		}
	}
	report.Defects = r.defects
	if conf.Obs != nil {
		snap := conf.Obs.Snapshot()
		report.Obs = &snap
	}
	return report, nil
}

// memberTurn plays one member's round: the adversarial script for an
// adversary, the round's inputs (batched or per message) for an honest
// node.
func (r *soakRig) memberTurn(m *soakMember, inputs [][]byte) error {
	if m.adversary {
		return r.adversaryTurn(m)
	}
	if r.conf.Batched {
		_, err := m.n.RunBatch(inputs)
		return err
	}
	for _, input := range inputs {
		if _, err := m.n.RunOnce(input); err != nil {
			return err
		}
	}
	return nil
}

// churnStep applies the round's churn schedule: fail over a crashed
// aggregator's members, revive last round's crashed nodes on a different
// aggregator, crash this round's victims, and join fresh members.
func (r *soakRig) churnStep(round int) error {
	churn := r.conf.Churn
	if churn == nil || round < 2 {
		return nil
	}

	if churn.RootCrashRound == round && r.root != nil {
		// The root leader dies mid-campaign. FailLeader severs every live
		// connection, so the resilient clients' next round trips time out,
		// re-dial, and land on the promoted follower.
		if err := r.root.FailLeader(); err != nil {
			return err
		}
		r.report.RootFailovers++
	}

	if churn.AggregatorCrashRound == round && len(r.aggs) >= 2 && !r.aggDead[0] {
		_ = r.aggs[0].Close()
		r.aggDead[0] = true
		r.report.AggregatorFailovers++
		for _, m := range r.members {
			if m.agg == 0 && !m.crashed {
				if err := r.attach(m, r.nextAliveAgg(0)); err != nil {
					return err
				}
			}
		}
	}

	for _, m := range r.members {
		if m.crashed {
			if err := r.attach(m, r.nextAliveAgg(m.agg)); err != nil {
				return err
			}
			m.crashed = false
			r.report.Rejoins++
		}
	}

	// Crash honest, non-recording members, rotating through whoever is
	// still alive; the pool shrinks as members are picked, so no member
	// is crashed twice in a round and at least one pool member survives.
	honestPool := make([]*soakMember, 0, len(r.members))
	for _, m := range r.members {
		if !m.adversary && !m.n.RecordFailures && !m.crashed {
			honestPool = append(honestPool, m)
		}
	}
	for i := 0; i < churn.CrashPerRound && len(honestPool) > 1; i++ {
		idx := r.crashCursor % len(honestPool)
		m := honestPool[idx]
		honestPool = append(honestPool[:idx], honestPool[idx+1:]...)
		r.crashCursor++
		_ = m.n.Close()
		m.crashed = true
		r.report.Crashes++
	}

	for i := 0; i < churn.JoinPerRound; i++ {
		m := r.newMember(fmt.Sprintf("join%03d", r.joinSeq))
		r.joinSeq++
		agg := -1
		if len(r.aggs) > 0 {
			agg = r.nextAliveAgg(r.joinSeq % len(r.aggs))
		}
		if err := r.attach(m, agg); err != nil {
			return err
		}
		r.members = append(r.members, m)
		r.report.Joins++
	}
	return nil
}

// adversaryTurn plays one adversarial member's round: the first active
// round ships its tamper (a spoofed report and a poisoned upload, or a
// forged recording), every later round ships a well-formed benign report —
// which the community must keep ignoring once the node is quarantined.
// Adversaries never run the round's inputs: their contribution is
// tampered traffic, not executions.
func (r *soakRig) adversaryTurn(m *soakMember) error {
	n := m.n
	// A resilient soak re-offends every round: at-most-once delivery may
	// surrender a tamper to an injected fault, and the quarantine
	// guarantee must hold against an attacker who simply keeps attacking.
	if !m.tampered || r.retry != nil {
		m.tampered = true
		if m.forger {
			return r.sendForgedRecording(n, m.advIndex)
		}
		return r.sendSpoofedTraffic(n)
	}
	// Later rounds: a plausible, well-formed report. For a quarantined
	// node it must change nothing at the manager.
	rep := RunReport{NodeID: n.ID, Seq: n.dir.Seq, Outcome: uint8(vm.OutcomeExit)}
	env, err := NewEnvelope(MsgRunReport, rep)
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// sendSpoofedTraffic ships the edge-checkable tampers: a failure report
// and a learning upload whose PCs sit outside the image's code range.
func (r *soakRig) sendSpoofedTraffic(n *Node) error {
	img := r.conf.Image
	badPC := img.End() + 0x1000
	rep := RunReport{
		NodeID:  n.ID,
		Seq:     n.dir.Seq,
		Outcome: uint8(vm.OutcomeFailure),
		Failure: &FailureInfo{PC: badPC, Monitor: "MemoryFirewall", Kind: "spoofed"},
	}
	env, err := NewEnvelope(MsgRunReport, rep)
	if err != nil {
		return err
	}
	if err := n.roundTrip(env); err != nil {
		return err
	}

	poisoned := daikon.NewDB()
	poisoned.Add(&daikon.Invariant{
		Kind:    daikon.KindLowerBound,
		Var:     daikon.VarID{PC: badPC},
		Bound:   -1,
		Samples: 1 << 20,
	})
	raw, err := poisoned.Marshal()
	if err != nil {
		return err
	}
	env, err = NewEnvelope(MsgLearnUpload, LearnUpload{NodeID: n.ID, DB: raw})
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// sendForgedRecording ships the farm-checkable tamper: a recording of a
// healthy run relabelled as a monitor-detected failure at a plausible
// in-range location. It passes every static check; only replaying it
// (replay.Farm.Vet) reveals that the claimed failure does not reproduce.
// Each forger claims a different location, so one forgery never shadows
// another in the aggregators' per-location deduplication.
func (r *soakRig) sendForgedRecording(n *Node, advIndex int) error {
	img := r.conf.Image
	input := []byte("forged")
	if len(r.conf.Benign) > 0 {
		input = r.conf.Benign[0]
	}
	rec, _, err := replay.Record(n.ID+"/forged", img, input, nil, replay.Options{})
	if err != nil {
		return err
	}
	claimPC := img.Base + uint32((int(img.Entry-img.Base)+4*advIndex)%len(img.Code))
	rec.Outcome = vm.OutcomeFailure
	rec.ExitCode = 0
	rec.Failure = &vm.Failure{PC: claimPC, Monitor: "MemoryFirewall", Kind: "forged"}
	raw, err := rec.Marshal()
	if err != nil {
		return err
	}
	env, err := NewEnvelope(MsgRecording, RecordingUpload{NodeID: n.ID, Recording: raw})
	if err != nil {
		return err
	}
	return n.roundTrip(env)
}

// converged syncs every eligible member and updates the convergence
// table; it reports whether every defect has converged. A defect
// converges in the first round after which the manager has adopted a
// repair for it and every eligible node's directives carry that same
// repair. Eligible means alive, honest, and not quarantined: crashed
// nodes re-attach and catch up next round, and quarantined nodes are
// outside the trust boundary by definition.
func (r *soakRig) converged(round int) bool {
	root := r.rootMgr()
	states := root.CaseStates()
	quarantined := root.Quarantined()

	type held struct {
		ids   map[string]string // failureID -> repair ID
		valid bool
	}
	var eligible []*soakMember
	for _, m := range r.members {
		if m.crashed || m.adversary {
			continue
		}
		if _, q := quarantined[m.n.ID]; q {
			continue
		}
		eligible = append(eligible, m)
	}
	collect := func(m *soakMember) held {
		if err := m.n.Sync(); err != nil {
			return held{}
		}
		h := held{ids: make(map[string]string), valid: true}
		dir := m.n.Directives()
		for j := range dir.Repairs {
			spec := &dir.Repairs[j]
			h.ids[spec.FailureID] = repairSpecID(spec)
		}
		return h
	}
	holdings := make([]held, len(eligible))
	if r.conf.ParallelMembers {
		// Under chaos a sync may eat several recv timeouts before its
		// retry lands; collected serially that latency multiplies by the
		// population.
		var wg sync.WaitGroup
		for i, m := range eligible {
			wg.Add(1)
			go func(i int, m *soakMember) {
				defer wg.Done()
				holdings[i] = collect(m)
			}(i, m)
		}
		wg.Wait()
	} else {
		for i, m := range eligible {
			holdings[i] = collect(m)
		}
	}

	all := true
	for i := range r.defects {
		d := &r.defects[i]
		if states[d.FailurePC] != core.StatePatched {
			d.Converged = false
			all = false
			continue
		}
		failureID := fmt.Sprintf("fail@%#x", d.FailurePC)
		agree := 0
		var adopted string
		uniform := true
		for _, h := range holdings {
			if !h.valid {
				uniform = false
				continue
			}
			id, ok := h.ids[failureID]
			if !ok {
				uniform = false
				continue
			}
			if adopted == "" {
				adopted = id
			}
			if id == adopted {
				agree++
			} else {
				uniform = false
			}
		}
		d.Agree = agree
		// Convergence is re-evaluated every round (a churn soak must HOLD
		// agreement, not just reach it); Rounds keeps the first round full
		// agreement was observed.
		d.Converged = uniform && adopted != "" && agree == len(holdings)
		if d.Converged {
			d.Adopted = adopted
			if d.Rounds == 0 {
				d.Rounds = round
			}
		} else {
			all = false
		}
	}
	return all
}
