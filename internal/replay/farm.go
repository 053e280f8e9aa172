package replay

import (
	"runtime"
	"time"

	"repro/internal/evaluate"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/vm"
)

// Verdict is the outcome of replaying the recorded failing run under one
// candidate repair.
type Verdict struct {
	RepairID string // stable identifier of the judged candidate
	Index    int    // position in the candidate slice handed to Evaluate

	Outcome  vm.Outcome    // how the replay ended
	ExitCode uint32        // exit status when Outcome is an exit
	Steps    uint64        // instructions the replay executed
	Elapsed  time.Duration // wall clock the replay took

	// Recurred reports that the recorded failure fired again at the same
	// location despite the candidate being in place.
	Recurred bool
	// Survived applies the paper's §2.6 criterion through the same
	// evaluate.RunFailed the live pipeline calls: the run neither
	// recurred, nor crashed, nor exited abnormally. A failure at a
	// *different* location does not count against the candidate (it
	// opens its own case).
	Survived bool
	// CleanExit means a normal exit with status 0 — the strongest signal.
	CleanExit bool

	// Err carries a machine-construction or deadline error; the verdict
	// counts as not-survived.
	Err string
}

// Farm evaluates candidate repairs against a recording concurrently: one
// full deterministic replay per candidate on a worker pool, each on a
// fresh machine built from the recording. This is the offline analog of
// the community's one-candidate-per-node parallel evaluation (§3) —
// except the "community" is a pool of goroutines and the "subsequent
// execution" is the recorded one, so every candidate is judged within a
// single wall-clock failure.
type Farm struct {
	// Workers bounds concurrent replays; 0 uses GOMAXPROCS.
	Workers int
	// Deadline bounds each candidate's replay in wall-clock time; 0 means
	// unbounded (the machine's step budget still terminates hangs, so a
	// deadline only matters when wall-clock latency does).
	Deadline time.Duration
	// Obs, when set, records per-candidate replay durations into the
	// "replay.candidate" histogram and counts deadline misses in
	// "replay.deadline_misses". Nil disables recording.
	Obs *obs.Tracer
}

// Evaluate replays the recording once per candidate repair and returns one
// verdict per candidate, in input order. failureID is the case the
// candidates belong to: its previously deployed repair (if any) is removed
// from the replayed patch set, and candidate patch IDs are scoped under
// it. Machines are independent — candidates share nothing but the
// read-only recording — so verdicts are order-independent and the farm is
// deterministic for a fixed recording.
func (f *Farm) Evaluate(rec *Recording, failureID string, cands []*repair.Repair) []Verdict {
	verdicts := make([]Verdict, len(cands))
	if len(cands) == 0 {
		return verdicts
	}
	img, err := rec.DecodeImage()
	if err != nil {
		for i, r := range cands {
			verdicts[i] = Verdict{RepairID: r.ID(), Index: i, Err: err.Error()}
		}
		return verdicts
	}

	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				verdicts[i] = f.evalOne(rec, img, failureID, cands[i], i)
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
	return verdicts
}

// evalOne replays the recording under one candidate, honouring the farm
// deadline. On deadline the replay goroutine is abandoned — its machine
// still terminates at the recording's step budget, so nothing leaks
// unboundedly.
func (f *Farm) evalOne(rec *Recording, img *image.Image, failureID string, cand *repair.Repair, idx int) Verdict {
	if f.Deadline <= 0 {
		v := runVerdict(rec, img, failureID, cand, idx)
		f.Obs.Registry().Histogram("replay.candidate").Observe(v.Elapsed)
		return v
	}
	ch := make(chan Verdict, 1)
	go func() { ch <- runVerdict(rec, img, failureID, cand, idx) }()
	select {
	case v := <-ch:
		f.Obs.Registry().Histogram("replay.candidate").Observe(v.Elapsed)
		return v
	case <-time.After(f.Deadline):
		f.Obs.Counter("replay.deadline_misses").Inc()
		return Verdict{RepairID: cand.ID(), Index: idx, Err: "replay deadline exceeded"}
	}
}

func runVerdict(rec *Recording, img *image.Image, failureID string, cand *repair.Repair, idx int) Verdict {
	start := time.Now()
	machine, err := rec.NewMachine(img, cand.BuildPatches(failureID), failureID)
	if err != nil {
		return Verdict{RepairID: cand.ID(), Index: idx, Err: err.Error()}
	}
	res := machine.Run()
	v := Verdict{
		RepairID: cand.ID(),
		Index:    idx,
		Outcome:  res.Outcome,
		ExitCode: res.ExitCode,
		Steps:    res.Steps,
		Elapsed:  time.Since(start),
	}
	recPC, recorded := rec.FailurePC()
	v.Recurred = recorded && res.Failure != nil && res.Failure.PC == recPC
	v.CleanExit = res.Outcome == vm.OutcomeExit && res.ExitCode == 0
	v.Survived = !evaluate.RunFailed(v.Recurred, res.Outcome, res.ExitCode)
	return v
}

// Apply feeds farm verdicts into an evaluator — the same credit/debit the
// live pipeline applies after each evaluation run — and returns how many
// candidates survived. Verdicts that carry an error (deadline exceeded,
// machine construction failure) are no evidence about the repair and are
// skipped: the candidate keeps its score and live evaluation decides.
// After Apply, Evaluator.Best() is the repair the farm recommends
// deploying on the next live execution.
func Apply(verdicts []Verdict, ev *evaluate.Evaluator) (survivors int) {
	for i := range verdicts {
		if verdicts[i].Err != "" {
			continue
		}
		ev.Record(verdicts[i].RepairID, verdicts[i].Survived)
		if verdicts[i].Survived {
			survivors++
		}
	}
	return survivors
}
