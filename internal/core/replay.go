package core

import (
	"time"

	"repro/internal/replay"
)

// replayFastPath runs the case's fast path on the recording of a live run
// that just failed at its location, after the optional determinism
// self-check of the recording (ReplayConfig.VetRecordings).
func (cv *ClearView) replayFastPath(rec *replay.Recording, fc *FailureCase) {
	rp := cv.conf.Replay
	start := time.Now()
	defer func() { fc.Metrics.ReplayTime += time.Since(start) }()
	farm := &replay.Farm{Workers: rp.Workers, Deadline: rp.Deadline, Obs: cv.tr}
	if rp.VetRecordings {
		vsp := cv.tr.Start("vet")
		err := farm.Vet(rec)
		vsp.Finish()
		if err != nil {
			fc.Metrics.VetRejects++
			cv.tr.Counter("core.vet_rejects").Inc()
			return
		}
		fc.Metrics.ReplayRuns++
	}
	fc.Replay(rec, farm)
}

// Replay advances the case as far as rec — a recording of a run that
// failed at the case's location — allows, without waiting for live
// recurrences, and reports whether farm verdicts re-ranked the candidate
// repairs.
//
// The live state machine needs one execution per transition: run 1
// detects, runs 2–3 observe the checking patches, and runs 4+ try one
// candidate repair each. Because the machine is deterministic, every one
// of those subsequent executions of the *same* input is already implied by
// the recording — so the fast path performs them now, offline:
//
//  1. While the case is checking, the recording is replayed under the
//     checking patches, feeding the same observation stream the live runs
//     would produce, until the configured number of failing check runs is
//     reached and correlations are classified.
//  2. Once candidate repairs exist, farm replays the recording under
//     every candidate concurrently and feeds the verdicts into the
//     evaluator. Candidates under which the recorded failure recurs (or
//     the replay crashes) are discarded before ever being deployed live;
//     the best survivor is deployed for the next live execution.
//
// The next live presentation then runs with the winning repair in place —
// ClearView converges in two presentations of a deterministic exploit
// instead of 4+, and the unsuccessful candidates never reach production.
//
// A check replay that cannot run (its machine cannot be built) is no run
// and is not logged. One that runs but does not reproduce the recorded
// detection (a nondeterministic environment would do this; our machine
// only stops reproducing when the checking patches themselves perturb the
// failure) is logged as the non-failing check run it was, and the fast
// path then leaves the case to the live pipeline, exactly as in the paper.
func (c *FailureCase) Replay(rec *replay.Recording, farm *replay.Farm) (ranked bool) {
	// Phase 1: compress the runs-2/3 checking phase.
	for c.State == StateChecking {
		c.CheckSet.StartRun()
		res, err := rec.Replay(c.CheckSet.Patches, c.ID)
		if err != nil {
			return false
		}
		c.Metrics.ReplayRuns++
		detected := res.Failure != nil && res.Failure.PC == c.PC
		c.RecordCheckRun(detected, c.CheckSet.DrainRun())
		if !detected {
			return false
		}
	}

	// Phase 2: compress the run-4+ candidate exploration.
	if c.State != StateEvaluating {
		return false
	}
	// The caller parks while the farm's workers replay. Under the
	// community manager's lock that park is the convoy the stage table
	// exists to expose, so it is attributed explicitly.
	sp := c.conf.Obs.Start("farm")
	wait := sp.Block("farm.fanout")
	verdicts := farm.Evaluate(rec, c.ID, c.Repairs)
	wait()
	sp.Finish()
	survivors := replay.Apply(verdicts, c.Evaluator)
	applied := 0
	for i := range verdicts {
		if verdicts[i].Err == "" {
			applied++
		}
	}
	c.Metrics.ReplayRuns += len(verdicts)
	c.Metrics.ReplayDiscards += applied - survivors
	c.redeploy()
	return true
}
