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
//
// The state machine is FailureCase's, and it is the only one: the
// community manager (internal/community) drives the same FailureCase
// steps with its members' reports in place of local runs.
package core

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Config assembles a ClearView instance. Its pipeline fields — the image,
// the databases, the knobs from StackScope to ReverseRepairOrder, and Obs —
// are also what every FailureCase step reads, which is how the community
// manager runs the same lifecycle with a Config of its own.
type Config struct {
	Image      *image.Image // the protected binary
	Invariants *daikon.DB   // the learned invariant database
	CFG        *cfg.DB      // shared CFG database; created if nil

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
	DisableSameBlockRestriction bool // admit two-variable invariants outside the frame's block
	ReverseRepairOrder          bool // invert the §2.6 tie-breaking order

	// Monitors is the detector set every run executes under and every
	// recording replays under (§4.2.2: the Red Team ran with
	// MemoryFirewall, HeapGuard and ShadowStack; FaultGuard and HangGuard
	// are the extended failure classes). The zero value deploys none. A
	// HangBudget must stay below MaxSteps.
	Monitors replay.Monitors

	MaxSteps uint64 // step budget of each run; 0 selects vm.DefaultMaxSteps

	// Obs, when set, traces the orchestrator's pipeline stages under the
	// same names the community uses (node.execute, detect, record.seal,
	// vet, farm, correlate, evaluate) so a single-instance run and a
	// community soak read off the same per-stage table. Nil disables
	// tracing; the Metrics struct is always populated either way.
	Obs *obs.Tracer

	// Replay enables the record/replay fast path (internal/replay): a
	// failing execution is sealed into a recording of its inputs and
	// outcome (replay.Seal), and the recorded run is immediately replayed —
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
	// VetRecordings replays each freshly sealed recording once,
	// unmodified, and confirms the recorded outcome reproduces
	// (replay.Farm.Vet) before the fast path trusts it — a determinism
	// self-check of the recording pipeline itself (a recording that does
	// not reproduce its run would otherwise silently mis-rank
	// candidates), at the cost of one extra replay per failing run. A
	// recording that fails the vet is ignored and the live pipeline
	// proceeds as in the paper; Metrics.VetRejects counts such
	// rejections. Cross-trust-boundary
	// vetting of recordings shipped in by community members is the
	// community manager's, via ManagerConfig.VetReports — always
	// stricter (image identity, step-budget clamp, quarantine), never
	// optional there when armed.
	VetRecordings bool
}

// ClearView protects one application instance.
type ClearView struct {
	conf  Config
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
	if conf.CFG == nil {
		conf.CFG = cfg.NewDB(conf.Image)
	}
	return &ClearView{conf: conf, cases: make(map[uint32]*FailureCase), tr: conf.Obs}, nil
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

	mons, _, _ := cv.conf.Monitors.Plugins()
	plugins := append([]vm.Plugin{cfg.NewPlugin(cv.conf.CFG)}, mons...)

	var patches []*vm.Patch
	var deployed []replay.PatchSpec
	for _, pc := range cv.order {
		fc := cv.cases[pc]
		switch fc.State {
		case StateChecking:
			fc.CheckSet.StartRun()
			patches = append(patches, fc.CheckSet.Patches...)
		case StateEvaluating, StatePatched:
			patches = append(patches, fc.Current.Repair.BuildPatches(fc.ID)...)
			if cv.conf.Replay != nil {
				deployed = append(deployed, replay.Spec(fc.ID, fc.Current.Repair))
			}
		}
	}

	start := time.Now()
	machine, err := vm.New(vm.Config{
		Image:    cv.conf.Image,
		Plugins:  plugins,
		Patches:  patches,
		Input:    input,
		MaxSteps: cv.conf.MaxSteps,
	})
	if err != nil {
		return vm.RunResult{Outcome: vm.OutcomeCrash, Crash: &vm.Crash{Reason: err.Error()}}
	}
	esp := cv.tr.Start("node.execute")
	res := machine.Run()
	esp.Finish()
	elapsed := time.Since(start)

	cv.afterRun(res, elapsed)

	if cv.conf.Replay != nil && res.Failure != nil {
		rsp := cv.tr.Start("record.seal")
		rec := replay.Seal(
			fmt.Sprintf("fail@%#x/run%d", res.Failure.PC, cv.TotalRuns),
			cv.conf.Image, input, deployed, cv.conf.Monitors, cv.conf.MaxSteps, res,
		)
		rsp.Finish()
		cv.LastRecording = rec
		cv.replayFastPath(rec, cv.cases[res.Failure.PC])
	}
	cv.PatchesGenerated = 0
	for _, fc := range cv.cases {
		cv.PatchesGenerated += len(fc.CheckSet.Patches) + len(fc.Repairs)
	}
	return res
}

// afterRun feeds one live run to every failure case and opens a case for
// a failure at a new location.
func (cv *ClearView) afterRun(res vm.RunResult, elapsed time.Duration) {
	var esp *obs.Span
	if len(cv.order) > 0 {
		esp = cv.tr.Start("evaluate")
	}
	defer esp.Finish()

	for _, pc := range cv.order {
		fc := cv.cases[pc]
		recurred := res.Failure != nil && res.Failure.PC == fc.PC
		switch fc.State {
		case StateChecking:
			if recurred {
				fc.Metrics.CheckRunTime += elapsed
			}
			fc.RecordCheckRun(recurred, fc.CheckSet.DrainRun())
		case StateEvaluating, StatePatched:
			fc.Metrics.RepairRunTime += elapsed
			fc.RecordRepairRun(fc.Current, recurred, res.Outcome, res.ExitCode)
		}
	}

	if res.Failure == nil {
		return
	}
	if _, known := cv.cases[res.Failure.PC]; !known {
		sp := cv.tr.Start("detect")
		fc := OpenCase(&cv.conf, res.Failure.PC, res.Failure.Stack)
		sp.Finish()
		fc.Metrics.DetectTime = elapsed
		cv.cases[fc.PC] = fc
		cv.order = append(cv.order, fc.PC)
	}
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
