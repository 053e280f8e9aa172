package replay_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/redteam"
	"repro/internal/replay"
	"repro/internal/vm"
)

var (
	setupOnce sync.Once
	setupBase *redteam.Setup
	setupErr  error
)

func baseSetup(t *testing.T) *redteam.Setup {
	t.Helper()
	setupOnce.Do(func() { setupBase, setupErr = redteam.NewSetup(false) })
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return setupBase
}

func exploit(t *testing.T, id string) redteam.Exploit {
	t.Helper()
	for _, ex := range redteam.AllExploits() {
		if ex.Bugzilla == id {
			return ex
		}
	}
	t.Fatalf("unknown exploit %s", id)
	return redteam.Exploit{}
}

// liveAdopted runs the paper's sequential live campaign and returns the
// adopted repair plus the presentations it took.
func liveAdopted(t *testing.T, setup *redteam.Setup, ex redteam.Exploit) (string, int) {
	t.Helper()
	cv, err := setup.ClearView(ex.NeedsStackScope)
	if err != nil {
		t.Fatal(err)
	}
	res := redteam.RunSingleVariant(cv, setup.App, ex, 24)
	if !res.Patched {
		t.Fatalf("%s: live campaign never patched", ex.Bugzilla)
	}
	return cv.Cases()[0].CurrentRepairID(), res.Presentations
}

// candidateRepairs drives a plain pipeline through detection and checking
// so the candidate repair set exists, and returns the failure case.
func candidateRepairs(t *testing.T, setup *redteam.Setup, ex redteam.Exploit) *core.FailureCase {
	t.Helper()
	cv, err := setup.ClearView(ex.NeedsStackScope)
	if err != nil {
		t.Fatal(err)
	}
	attack := redteam.AttackInput(setup.App, ex, 0)
	for i := 0; i < 3; i++ { // run 1 detects, runs 2-3 check
		cv.Execute(attack)
	}
	fc := cv.Cases()[0]
	if fc.State != core.StateEvaluating {
		t.Fatalf("%s: case state %v after checking, want evaluating", ex.Bugzilla, fc.State)
	}
	if len(fc.Repairs) == 0 {
		t.Fatalf("%s: no candidate repairs generated", ex.Bugzilla)
	}
	return fc
}

// TestRecordingRoundTrip records a failing presentation, ships it through
// the wire format, and checks the deserialized recording replays to the
// identical failure.
func TestRecordingRoundTrip(t *testing.T) {
	setup := baseSetup(t)
	ex := exploit(t, "290162")
	rec, res, err := redteam.RecordAttack(setup, ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || rec.Failure == nil {
		t.Fatalf("recorded run did not fail: %+v", res)
	}

	raw, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := replay.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Replay(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Failure == nil {
		t.Fatalf("replay of deserialized recording did not fail: %+v", got)
	}
	if got.Failure.PC != rec.Failure.PC || got.Failure.Monitor != rec.Failure.Monitor {
		t.Fatalf("replayed failure %s@%#x != recorded %s@%#x",
			got.Failure.Monitor, got.Failure.PC, rec.Failure.Monitor, rec.Failure.PC)
	}
	if got.Steps != rec.Steps {
		t.Fatalf("replayed steps %d != recorded %d", got.Steps, rec.Steps)
	}
}

// TestRecordingSizeIndependentOfRun: a recording is what its replay reads
// — image, input, patches, monitors, step budget — and the claimed
// outcome, so it does not grow with the run. hang-loop runs to its hang
// budget (~400k steps) and 290162 fails within a few hundred, yet their
// wire sizes stay within 1 KiB of each other, and each is at most its
// image and input plus 2 KiB.
func TestRecordingSizeIndependentOfRun(t *testing.T) {
	setup := baseSetup(t)
	size := map[string]int{}
	steps := map[string]uint64{}
	for _, id := range []string{"hang-loop", "290162"} {
		rec, res, err := redteam.RecordAttack(setup, exploit(t, id), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil {
			t.Fatalf("%s: recorded run did not fail: %+v", id, res)
		}
		raw, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if limit := len(rec.Image) + len(rec.Input) + 2048; len(raw) > limit {
			t.Errorf("%s: recording is %d bytes, more than its image (%d) and input (%d) plus 2 KiB",
				id, len(raw), len(rec.Image), len(rec.Input))
		}
		size[id], steps[id] = len(raw), rec.Steps
	}
	if steps["hang-loop"] < 100_000 || steps["290162"] > 1_000 {
		t.Fatalf("runs of %d and %d steps do not span the range this test needs", steps["hang-loop"], steps["290162"])
	}
	if d := size["hang-loop"] - size["290162"]; d >= 1024 || d <= -1024 {
		t.Errorf("recordings of %d and %d steps are %d and %d bytes: size grows with the run",
			steps["hang-loop"], steps["290162"], size["hang-loop"], size["290162"])
	}
}

// TestFarmMatchesLiveEvaluation is the acceptance property: for seeded
// webapp defects, judging every candidate against the recorded failing run
// ranks the same repair best that the sequential live campaign adopts.
func TestFarmMatchesLiveEvaluation(t *testing.T) {
	setup := baseSetup(t)
	for _, id := range []string{"269095", "290162", "296134", "311710"} {
		id := id
		t.Run(id, func(t *testing.T) {
			ex := exploit(t, id)
			adopted, _ := liveAdopted(t, setup, ex)
			fc := candidateRepairs(t, setup, ex)

			rec, _, err := redteam.RecordAttack(setup, ex, 0)
			if err != nil {
				t.Fatal(err)
			}
			farm := &replay.Farm{Workers: 8}
			verdicts := farm.Evaluate(rec, fc.ID, fc.Repairs)
			if len(verdicts) != len(fc.Repairs) {
				t.Fatalf("%d verdicts for %d candidates", len(verdicts), len(fc.Repairs))
			}
			for _, v := range verdicts {
				if v.Err != "" {
					t.Fatalf("verdict error for %s: %s", v.RepairID, v.Err)
				}
			}
			ev := evaluate.New(fc.Repairs, 0)
			survivors := replay.Apply(verdicts, ev)
			if survivors == 0 {
				t.Fatal("no candidate survived the recorded run")
			}
			best := ev.Best()
			if best == nil || best.Repair.ID() != adopted {
				t.Fatalf("farm ranks %q best, live adopted %q", best.Repair.ID(), adopted)
			}

			// Determinism: a second farm pass yields identical verdicts.
			again := farm.Evaluate(rec, fc.ID, fc.Repairs)
			for i := range verdicts {
				if verdicts[i].Survived != again[i].Survived || verdicts[i].Steps != again[i].Steps {
					t.Fatalf("verdict %d not deterministic: %+v vs %+v", i, verdicts[i], again[i])
				}
			}
		})
	}
}

// TestCoreReplayFastPath verifies the pipeline integration: with the fast
// path enabled, a deterministic exploit is repaired in two presentations —
// detection plus one surviving run under the farm-picked repair — and the
// adopted repair matches the live campaign's.
func TestCoreReplayFastPath(t *testing.T) {
	setup := baseSetup(t)
	for _, id := range []string{"269095", "290162"} {
		id := id
		t.Run(id, func(t *testing.T) {
			ex := exploit(t, id)
			adopted, livePresentations := liveAdopted(t, setup, ex)

			cv, err := setup.ReplayClearView(ex.NeedsStackScope, 0)
			if err != nil {
				t.Fatal(err)
			}
			attack := redteam.AttackInput(setup.App, ex, 0)

			// Presentation 1: detection; the fast path must complete
			// checking AND ranking offline, leaving a deployed candidate.
			first := cv.Execute(attack)
			if first.Outcome != vm.OutcomeFailure {
				t.Fatalf("presentation 1: %+v", first)
			}
			fc := cv.Cases()[0]
			if fc.State != core.StateEvaluating || fc.Current == nil {
				t.Fatalf("after presentation 1: state %v, current %v", fc.State, fc.CurrentRepairID())
			}
			if fc.Metrics.ReplayRuns < len(fc.Repairs) {
				t.Fatalf("fast path ran %d replays for %d candidates", fc.Metrics.ReplayRuns, len(fc.Repairs))
			}
			if cv.LastRecording == nil {
				t.Fatal("no recording retained")
			}

			// Presentation 2: the farm-picked repair survives live.
			second := cv.Execute(attack)
			if second.Outcome != vm.OutcomeExit || second.ExitCode != 0 {
				t.Fatalf("presentation 2: %+v", second)
			}
			if fc.State != core.StatePatched {
				t.Fatalf("after presentation 2: state %v", fc.State)
			}
			if got := fc.CurrentRepairID(); got != adopted {
				t.Fatalf("fast path adopted %q, live adopted %q", got, adopted)
			}
			if livePresentations <= 2 {
				t.Fatalf("live campaign took %d presentations; exploit too easy to demonstrate compression", livePresentations)
			}
			// No unsuccessful repair ever reached a live execution.
			if fc.Metrics.Unsuccessful != 0 {
				t.Fatalf("%d unsuccessful live repair runs despite the farm", fc.Metrics.Unsuccessful)
			}
		})
	}
}

// TestFastPathCascadingFailures covers the §2.6 "repair exposes another
// failure" case: 311710's first repair uncovers a second failure location,
// so convergence takes one detection presentation per exposed location
// plus one surviving run — still well under the live campaign, and with
// zero unsuccessful live repair deployments.
func TestFastPathCascadingFailures(t *testing.T) {
	setup := baseSetup(t)
	ex := exploit(t, "311710")
	_, livePresentations := liveAdopted(t, setup, ex)

	cv, err := setup.ReplayClearView(ex.NeedsStackScope, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := redteam.RunSingleVariant(cv, setup.App, ex, 24)
	if !res.Patched {
		t.Fatal("replay-enabled campaign never patched")
	}
	if res.Presentations >= livePresentations {
		t.Fatalf("replay campaign took %d presentations, live took %d", res.Presentations, livePresentations)
	}
	for _, fc := range cv.Cases() {
		if fc.Metrics.Unsuccessful != 0 {
			t.Fatalf("case %s: %d unsuccessful live repair runs despite the farm", fc.ID, fc.Metrics.Unsuccessful)
		}
	}
}

// TestFastPathFalsePositiveNeutral confirms the recording machinery never
// opens cases or generates patches on legitimate inputs (§4.3.7 must hold
// with replay enabled too).
func TestFastPathFalsePositiveNeutral(t *testing.T) {
	setup := baseSetup(t)
	cv, err := setup.ReplayClearView(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	patches, cases := redteam.FalsePositives(cv)
	if patches != 0 || cases != 0 {
		t.Fatalf("legitimate load generated %d patches, %d cases", patches, cases)
	}
	if cv.LastRecording != nil {
		t.Fatal("clean runs must not retain recordings")
	}
}
