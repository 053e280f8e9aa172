// Package core is the ClearView orchestrator: it wires the learning
// database, monitors, correlated invariant identification, repair
// generation, and repair evaluation into the closed loop of Figure 1.
//
// A ClearView instance protects one application. Each call to Execute runs
// the application once on one input (the paper's unit: navigating Firefox
// to a page) under the currently deployed monitors and patches, then
// advances the per-failure-location state machines:
//
//	run 1   a monitor detects a failure at a new location → select
//	        candidate correlated invariants, build checking patches
//	runs 2-3  checking patches observe invariant satisfaction/violation;
//	        after the configured number of failing runs, classify
//	        correlations, drop the checks, generate candidate repairs
//	run 4+  deploy the best-scoring repair; a run in which the failure
//	        recurs (or the application crashes) demotes the repair and the
//	        next best is deployed; a surviving run promotes it to the
//	        adopted patch (evaluation continues for as long as the
//	        application runs)
package core

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/evaluate"
	"repro/internal/image"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Config assembles a ClearView instance.
type Config struct {
	Image      *image.Image
	Invariants *daikon.DB
	CFG        *cfg.DB // shared CFG database; created if nil

	// StackScope is the number of call-stack procedures with candidate
	// invariants to search (§4.3.2); default 1 (the Red Team setting).
	StackScope int
	// CheckRuns is the number of failing runs with checking patches in
	// place before correlations are classified; default 2 (§3.2).
	CheckRuns int
	// Bonus is the never-failed score bonus b (§2.6); default 1.
	Bonus int

	// Ablation knobs (benchmarks only; zero values are the paper's
	// behaviour).
	DisableSameBlockRestriction bool
	ReverseRepairOrder          bool

	// Monitor configuration (§4.2.2: the Red Team ran with the first
	// three; FaultGuard and HangGuard are the extended failure classes).
	MemoryFirewall bool
	HeapGuard      bool
	ShadowStack    bool
	FaultGuard     bool
	HangGuard      bool
	// HangBudget is HangGuard's step budget; 0 selects
	// monitor.DefaultHangBudget. Must stay below MaxSteps.
	HangBudget uint64

	MaxSteps uint64

	// Obs, when set, traces the orchestrator's pipeline stages under the
	// same names the community uses (node.execute, detect, record.seal,
	// vet, farm, correlate, evaluate) so a single-instance run and a
	// community soak read off the same per-stage table. Nil disables
	// tracing; the Metrics struct is always populated either way.
	Obs *obs.Tracer

	// Replay enables the record/replay fast path (internal/replay): every
	// execution is recorded with copy-on-write snapshots, and when a
	// failure is detected the recorded run is immediately replayed —
	// first under the checking patches (compressing the runs-2/3 checking
	// phase), then once per candidate repair on a parallel farm
	// (compressing the run-4+ exploration) — all within the first failing
	// wall-clock presentation. nil keeps the paper's live-only pipeline.
	Replay *ReplayConfig
}

// ReplayConfig tunes the record/replay fast path.
type ReplayConfig struct {
	// Workers bounds concurrent candidate replays; 0 uses GOMAXPROCS.
	Workers int
	// Deadline bounds each candidate replay in wall-clock time; 0 means
	// the machine step budget is the only bound.
	Deadline time.Duration
	// SnapshotInterval is the recording snapshot cadence in steps;
	// 0 selects replay.DefaultSnapshotInterval.
	SnapshotInterval uint64
	// VetRecordings replays each freshly sealed recording once,
	// unmodified, and confirms the recorded outcome reproduces
	// (replay.Farm.Vet) before the fast path trusts it — a determinism
	// self-check of the recording pipeline itself (a tape corrupted by a
	// snapshot bug would otherwise silently mis-rank candidates), at the
	// cost of one extra replay per failing run. A recording that fails
	// the vet is ignored and the live pipeline proceeds as in the paper;
	// Metrics.VetRejects counts such rejections. Cross-trust-boundary
	// vetting of recordings shipped in by community members is the
	// community manager's, via ManagerConfig.VetReports — always
	// stricter (image identity, step-budget clamp, quarantine), never
	// optional there when armed.
	VetRecordings bool
}

// CaseState is the lifecycle of one failure location.
type CaseState uint8

const (
	// StateChecking: invariant-checking patches are deployed.
	StateChecking CaseState = iota
	// StateEvaluating: candidate repairs are being evaluated.
	StateEvaluating
	// StatePatched: a successful repair is adopted (and still evaluated).
	StatePatched
	// StateUnrepaired: every candidate repair failed; the monitors keep
	// blocking the attack but the error is not corrected.
	StateUnrepaired
)

func (s CaseState) String() string {
	switch s {
	case StateChecking:
		return "checking"
	case StateEvaluating:
		return "evaluating"
	case StatePatched:
		return "patched"
	case StateUnrepaired:
		return "unrepaired"
	}
	return fmt.Sprintf("state%d", uint8(s))
}

// Metrics records the per-phase accounting that Table 3 reports.
type Metrics struct {
	DetectRuns      int           // runs to first detection (always 1)
	CheckRuns       int           // failing runs with checks in place
	ChecksBuilt     [5]int        // [one-of, lower-bound, less-than, nonzero, modulus] checked
	CheckExecs      uint64        // total invariant checks executed
	CheckViolations uint64        // total violations observed
	RepairsBuilt    [5]int        // correlated [one-of, lower-bound, less-than, nonzero, modulus]
	CandidateCount  int           // candidate invariants selected
	RepairCount     int           // candidate repairs generated
	Unsuccessful    int           // failed repair-evaluation runs
	ReplayRuns      int           // offline replays (checking + farm)
	ReplayDiscards  int           // candidates discarded by farm verdicts
	VetRejects      int           // recordings rejected by pre-replay vetting
	ReplayTime      time.Duration // wall clock spent in the fast path
	BuildChecks     time.Duration // analog of "Building Invariant Checks"
	BuildRepairs    time.Duration // analog of "Building Repair Patches"
	DetectTime      time.Duration
	CheckRunTime    time.Duration
	RepairRunTime   time.Duration
}

// FailureCase is the state machine for one failure location.
type FailureCase struct {
	ID    string
	PC    uint32
	State CaseState

	Stack        []uint32
	Candidates   []correlate.Candidate
	CheckSet     *correlate.CheckSet
	Correlations map[string]correlate.Correlation
	Repairs      []*repair.Repair
	Evaluator    *evaluate.Evaluator
	Current      *evaluate.Entry // deployed repair, if any

	Metrics Metrics
}

// CurrentRepairID returns the deployed repair's ID, or "".
func (c *FailureCase) CurrentRepairID() string {
	if c.Current == nil {
		return ""
	}
	return c.Current.ID
}

// ClearView protects one application instance.
type ClearView struct {
	conf  Config
	cfgdb *cfg.DB
	cases map[uint32]*FailureCase
	order []uint32

	// TotalRuns counts calls to Execute.
	TotalRuns int
	// PatchesGenerated counts every patch object ever built (checks,
	// stages, repairs) — the false-positive evaluation asserts this stays
	// zero under legitimate inputs.
	PatchesGenerated int
	// LastRecording is the most recent failing-run recording, when the
	// replay fast path is enabled — community nodes ship it to the
	// manager, and tools inspect it.
	LastRecording *replay.Recording

	tr *obs.Tracer
}

// New builds a ClearView instance. The invariant database is typically the
// output of a learning phase (internal/trace + internal/daikon) or of the
// community's merged learning.
func New(conf Config) (*ClearView, error) {
	if conf.Image == nil {
		return nil, fmt.Errorf("core: nil image")
	}
	if conf.Invariants == nil {
		return nil, fmt.Errorf("core: nil invariant database")
	}
	if conf.CheckRuns <= 0 {
		conf.CheckRuns = 2
	}
	cv := &ClearView{conf: conf, cases: make(map[uint32]*FailureCase), tr: conf.Obs}
	cv.cfgdb = conf.CFG
	if cv.cfgdb == nil {
		cv.cfgdb = cfg.NewDB(conf.Image)
	}
	return cv, nil
}

// Cases returns all failure cases in creation order.
func (cv *ClearView) Cases() []*FailureCase {
	out := make([]*FailureCase, 0, len(cv.order))
	for _, pc := range cv.order {
		out = append(out, cv.cases[pc])
	}
	return out
}

// Case returns the failure case at a failure location, or nil.
func (cv *ClearView) Case(pc uint32) *FailureCase { return cv.cases[pc] }

// Execute runs the application once on input under the current protection
// state and advances every failure case.
func (cv *ClearView) Execute(input []byte) vm.RunResult {
	cv.TotalRuns++

	var plugins []vm.Plugin
	plugins = append(plugins, cfg.NewPlugin(cv.cfgdb))
	var shadow *monitor.ShadowStack
	if cv.conf.ShadowStack {
		shadow = monitor.NewShadowStack()
		plugins = append(plugins, shadow)
	}
	if cv.conf.MemoryFirewall {
		plugins = append(plugins, monitor.NewMemoryFirewall())
	}
	if cv.conf.HeapGuard {
		plugins = append(plugins, monitor.NewHeapGuard())
	}
	if cv.conf.FaultGuard {
		plugins = append(plugins, monitor.NewFaultGuard())
	}
	var hang *monitor.HangGuard
	if cv.conf.HangGuard {
		hang = &monitor.HangGuard{Budget: cv.conf.HangBudget}
		plugins = append(plugins, hang)
	}

	var patches []*vm.Patch
	var deployed []replay.PatchSpec
	for _, pc := range cv.order {
		fc := cv.cases[pc]
		switch fc.State {
		case StateChecking:
			fc.CheckSet.StartRun()
			patches = append(patches, fc.CheckSet.Patches...)
		case StateEvaluating, StatePatched:
			if fc.Current != nil {
				patches = append(patches, fc.Current.Repair.BuildPatches(fc.ID)...)
				if cv.conf.Replay != nil {
					deployed = append(deployed, replay.Spec(fc.ID, fc.Current.Repair))
				}
			}
		}
	}

	cfg := vm.Config{
		Image:    cv.conf.Image,
		Plugins:  plugins,
		Patches:  patches,
		Input:    input,
		MaxSteps: cv.conf.MaxSteps,
	}
	var tape *replay.Tape
	if cv.conf.Replay != nil {
		tape = replay.NewTape(cv.conf.Replay.SnapshotInterval)
		cfg.SnapshotInterval = tape.Interval()
		cfg.SnapshotSink = tape.Sink
	}

	start := time.Now()
	machine, err := vm.New(cfg)
	if err != nil {
		return vm.RunResult{Outcome: vm.OutcomeCrash, Crash: &vm.Crash{Reason: err.Error()}}
	}
	if shadow != nil {
		shadow.Install(machine)
	}
	if hang != nil {
		hang.Install(machine)
	}
	esp := cv.tr.Start("node.execute")
	res := machine.Run()
	esp.Finish()
	elapsed := time.Since(start)

	cv.afterRun(res, elapsed)

	if tape != nil && res.Failure != nil {
		rsp := cv.tr.Start("record.seal")
		rec := tape.Seal(
			fmt.Sprintf("fail@%#x/run%d", res.Failure.PC, cv.TotalRuns),
			cv.conf.Image, input, deployed, cv.monitors(), cv.conf.MaxSteps, res,
		)
		rsp.Finish()
		cv.LastRecording = rec
		cv.replayFastPath(rec, res.Failure.PC)
	}
	return res
}

// monitors reports the configured monitor set in replay form, so
// recordings replay under the same detectors that produced them.
func (cv *ClearView) monitors() replay.Monitors {
	return replay.Monitors{
		MemoryFirewall: cv.conf.MemoryFirewall,
		HeapGuard:      cv.conf.HeapGuard,
		ShadowStack:    cv.conf.ShadowStack,
		FaultGuard:     cv.conf.FaultGuard,
		HangGuard:      cv.conf.HangGuard,
		HangBudget:     cv.conf.HangBudget,
	}
}

func (cv *ClearView) afterRun(res vm.RunResult, elapsed time.Duration) {
	failPC := uint32(0)
	if res.Failure != nil {
		failPC = res.Failure.PC
	}

	var esp *obs.Span
	if len(cv.order) > 0 {
		esp = cv.tr.Start("evaluate")
	}
	defer esp.Finish()

	for _, pc := range cv.order {
		fc := cv.cases[pc]
		switch fc.State {
		case StateChecking:
			detected := res.Failure != nil && failPC == fc.PC
			fc.CheckSet.EndRun(detected)
			if detected {
				fc.Metrics.CheckRuns++
				fc.Metrics.CheckRunTime += elapsed
			}
			if fc.CheckSet.DetectedRuns() >= cv.conf.CheckRuns {
				cv.finishChecking(fc)
			}
		case StateEvaluating, StatePatched:
			if fc.Current == nil {
				break
			}
			fc.Metrics.RepairRunTime += elapsed
			repairID := fc.Current.ID
			switch {
			case res.Failure != nil && failPC == fc.PC:
				// The failure recurred with the repair in place.
				fc.Evaluator.RecordFailure(repairID)
				fc.Metrics.Unsuccessful++
				cv.redeploy(fc)
			case res.Outcome == vm.OutcomeCrash,
				res.Outcome == vm.OutcomeExit && res.ExitCode != 0:
				// A crash with the repair in place counts against it
				// (§2.6: failed if the application crashes after repair).
				// An abnormal exit (the application's own exception
				// handler bailing out with a nonzero status) is the
				// observable equivalent of a crash.
				fc.Evaluator.RecordFailure(repairID)
				fc.Metrics.Unsuccessful++
				cv.redeploy(fc)
			default:
				// The run survived (normal exit, or a failure at a
				// different location — §2.6's "may expose another
				// failure", handled as its own case below).
				fc.Evaluator.RecordSuccess(repairID)
				if fc.State == StateEvaluating {
					fc.State = StatePatched
				}
			}
		}
	}

	if res.Failure != nil {
		if _, known := cv.cases[failPC]; !known {
			cv.openCase(res.Failure, elapsed)
		}
	}
}

// redeploy picks the next best repair after a failure, or gives up when
// the candidate set is exhausted.
func (cv *ClearView) redeploy(fc *FailureCase) {
	if fc.Evaluator.Exhausted() {
		fc.State = StateUnrepaired
		fc.Current = nil
		return
	}
	fc.State = StateEvaluating
	fc.Current = fc.Evaluator.Best()
}

// openCase responds to the first detection of a failure at a new location:
// select candidate correlated invariants and build checking patches
// (§2.4.1, §2.4.2).
func (cv *ClearView) openCase(f *vm.Failure, elapsed time.Duration) {
	sp := cv.tr.Start("detect")
	defer sp.Finish()
	fc := &FailureCase{
		ID:    fmt.Sprintf("fail@%#x", f.PC),
		PC:    f.PC,
		State: StateChecking,
		Stack: f.Stack,
	}
	fc.Metrics.DetectRuns = 1
	fc.Metrics.DetectTime = elapsed

	buildStart := time.Now()
	fc.Candidates = correlate.SelectCandidates(
		cv.conf.Invariants, cv.cfgdb, f.PC, f.Stack,
		correlate.Config{
			StackScope:                  cv.conf.StackScope,
			DisableSameBlockRestriction: cv.conf.DisableSameBlockRestriction,
		},
	)
	fc.Metrics.CandidateCount = len(fc.Candidates)
	fc.CheckSet = correlate.BuildCheckSet(fc.ID, fc.Candidates)
	cv.PatchesGenerated += len(fc.CheckSet.Patches)
	for _, c := range fc.Candidates {
		if s := repair.KindSlot(c.Inv.Kind); s >= 0 {
			fc.Metrics.ChecksBuilt[s]++
		}
	}
	fc.Metrics.BuildChecks = time.Since(buildStart)

	cv.cases[f.PC] = fc
	cv.order = append(cv.order, f.PC)

	if len(fc.Candidates) == 0 {
		// Nothing to check: no invariants anywhere in scope. The failure
		// remains blocked by the monitors but cannot be repaired.
		fc.State = StateUnrepaired
	}
}

// finishChecking classifies correlations, discards the checking patches,
// and generates the candidate repairs (§2.4.3, §2.5).
func (cv *ClearView) finishChecking(fc *FailureCase) {
	sp := cv.tr.Start("correlate")
	defer sp.Finish()
	fc.Metrics.CheckExecs = fc.CheckSet.TotalChecks
	fc.Metrics.CheckViolations = fc.CheckSet.TotalViolations
	fc.Correlations = correlate.Classify(fc.CheckSet.Runs())

	buildStart := time.Now()
	selected := correlate.SelectForRepair(fc.Candidates, fc.Correlations)
	fc.Repairs = repair.GenerateAll(selected, cv.conf.Image.InstAt, cv.conf.Invariants.SPOffsetAt)
	fc.Metrics.RepairCount = len(fc.Repairs)
	fc.Metrics.RepairsBuilt = repair.CountByKind(fc.Repairs)
	cv.PatchesGenerated += len(fc.Repairs)
	fc.Metrics.BuildRepairs = time.Since(buildStart)

	fc.Evaluator = evaluate.New(fc.Repairs, cv.conf.Bonus)
	fc.Evaluator.ReverseTieBreak = cv.conf.ReverseRepairOrder
	if fc.Evaluator.Len() == 0 {
		fc.State = StateUnrepaired
		return
	}
	fc.State = StateEvaluating
	fc.Current = fc.Evaluator.Best()
}

// Protected reports whether every known failure case has an adopted patch.
func (cv *ClearView) Protected() bool {
	for _, pc := range cv.order {
		if cv.cases[pc].State != StatePatched {
			return false
		}
	}
	return len(cv.order) > 0
}
