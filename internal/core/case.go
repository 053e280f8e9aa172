package core

import (
	"fmt"
	"time"

	"repro/internal/correlate"
	"repro/internal/evaluate"
	"repro/internal/repair"
	"repro/internal/vm"
)

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

// String names the state for reports and logs.
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
	DetectTime      time.Duration // wall clock of the detecting run
	CheckRunTime    time.Duration // wall clock of the failing runs under checks
	RepairRunTime   time.Duration // wall clock of the runs under candidate repairs
}

// FailureCase is the state machine for one failure location: the
// per-failure lifecycle of Figure 1. Both tiers drive it through the same
// steps — OpenCase, RecordCheckRun, RecordRepairRun and Replay — a
// ClearView instance with its own runs, the community manager with its
// members' reports. Current is set exactly while the case is evaluating
// or patched.
type FailureCase struct {
	ID    string    // wire and patch-ID prefix: "fail@<pc>"
	PC    uint32    // the failure location
	State CaseState // where the case is in its lifecycle

	Stack        []uint32                         // the detecting run's call stack, innermost first
	Candidates   []correlate.Candidate            // candidate correlated invariants (§2.4.1)
	CheckSet     *correlate.CheckSet              // their checking patches and run log (§2.4.2)
	Correlations map[string]correlate.Correlation // classification by invariant ID (§2.4.3)
	Repairs      []*repair.Repair                 // candidate repairs (§2.5)
	Evaluator    *evaluate.Evaluator              // their ranking (§2.6)
	Current      *evaluate.Entry                  // deployed repair, if any

	Metrics Metrics // per-phase accounting

	conf *Config // the pipeline every step reads
}

// CurrentRepairID returns the deployed repair's ID, or "".
func (c *FailureCase) CurrentRepairID() string {
	if c.Current == nil {
		return ""
	}
	return c.Current.ID
}

// OpenCase responds to the first detection of a failure at pc: it selects
// the candidate correlated invariants on the failure's call stack and
// builds the patches that check them (§2.4.1, §2.4.2). With no invariant
// in scope the case is unrepaired from the start: the monitors keep
// blocking the failure, but nothing can repair it. The case keeps conf for
// its later steps, so a caller that grows its invariant database (the
// community manager, as uploads merge) has every step read the current
// one.
func OpenCase(conf *Config, pc uint32, stack []uint32) *FailureCase {
	c := &FailureCase{
		ID:    fmt.Sprintf("fail@%#x", pc),
		PC:    pc,
		State: StateChecking,
		Stack: stack,
		conf:  conf,
	}
	c.Metrics.DetectRuns = 1

	start := time.Now()
	c.Candidates = correlate.SelectCandidates(conf.Invariants, conf.CFG, pc, stack, correlate.Config{
		StackScope:                  conf.StackScope,
		DisableSameBlockRestriction: conf.DisableSameBlockRestriction,
	})
	c.Metrics.CandidateCount = len(c.Candidates)
	c.CheckSet = correlate.BuildCheckSet(c.ID, c.Candidates)
	for _, cand := range c.Candidates {
		if s := repair.KindSlot(cand.Inv.Kind); s >= 0 {
			c.Metrics.ChecksBuilt[s]++
		}
	}
	c.Metrics.BuildChecks = time.Since(start)

	if len(c.Candidates) == 0 {
		c.State = StateUnrepaired
	}
	return c
}

// RecordCheckRun logs one run made under the case's checking patches:
// detected reports whether the failure recurred, obs are the run's folded
// observations for this case. Once Config.CheckRuns logged runs have
// reproduced the failure, checking is over: the correlations are
// classified, the checks dropped, and the candidate repairs generated and
// ranked (§2.4.3, §2.5), leaving the best one deployed — or the case
// unrepaired when no invariant correlates.
func (c *FailureCase) RecordCheckRun(detected bool, obs []correlate.Observation) {
	c.CheckSet.LogRun(correlate.RunLog{Detected: detected, Obs: obs})
	if detected {
		c.Metrics.CheckRuns++
	}
	if c.CheckSet.DetectedRuns() < c.conf.CheckRuns {
		return
	}
	sp := c.conf.Obs.Start("correlate")
	defer sp.Finish()
	c.Metrics.CheckExecs = c.CheckSet.TotalChecks
	c.Metrics.CheckViolations = c.CheckSet.TotalViolations
	c.Correlations = correlate.Classify(c.CheckSet.Runs())

	start := time.Now()
	selected := correlate.SelectForRepair(c.Candidates, c.Correlations)
	c.Repairs = repair.GenerateAll(selected, c.conf.Image.InstAt, c.conf.Invariants.SPOffsetAt)
	c.Metrics.RepairCount = len(c.Repairs)
	c.Metrics.RepairsBuilt = repair.CountByKind(c.Repairs)
	c.Metrics.BuildRepairs = time.Since(start)

	c.Evaluator = evaluate.New(c.Repairs, c.conf.Bonus)
	c.Evaluator.ReverseTieBreak = c.conf.ReverseRepairOrder
	c.redeploy()
}

// RecordRepairRun feeds one run made under candidate e into the
// evaluation (§2.6). recurred reports whether the case's failure was
// detected again. evaluate.RunFailed, which farm replays apply too, fails
// the run on a recurrence, a crash or an abnormal exit (the application's
// own exception handler bailing out with a nonzero status). A failed run
// debits e and deploys the next best candidate — demoting e if it was
// adopted — or gives the case up once every candidate has failed. A run
// that survives, which includes a failure at a different location (§2.6's
// "may expose another failure", a case of its own), credits e and, while
// the case is evaluating, adopts e: the candidate the run was under, which
// need not be Current when many machines evaluate candidates in parallel
// (§3).
func (c *FailureCase) RecordRepairRun(e *evaluate.Entry, recurred bool, outcome vm.Outcome, exitCode uint32) {
	if evaluate.RunFailed(recurred, outcome, exitCode) {
		c.Evaluator.RecordFailure(e.ID)
		c.Metrics.Unsuccessful++
		c.redeploy()
		return
	}
	c.Evaluator.RecordSuccess(e.ID)
	if c.State == StateEvaluating {
		c.State = StatePatched
		c.Current = e
	}
}

// redeploy deploys the best-ranked candidate repair, or gives the case up
// as unrepaired when the candidate set is exhausted.
func (c *FailureCase) redeploy() {
	if c.Evaluator.Exhausted() {
		c.State = StateUnrepaired
		c.Current = nil
		return
	}
	c.State = StateEvaluating
	c.Current = c.Evaluator.Best()
}
