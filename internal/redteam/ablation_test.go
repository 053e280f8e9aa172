package redteam

import (
	"testing"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/webapp"
)

// TestAblationDupElimShrinksDatabase: duplicate-variable elimination
// (§2.2.4) must strictly reduce both trace volume and inferred invariants,
// without losing any exploit's repairability.
func TestAblationDupElimShrinksDatabase(t *testing.T) {
	app := webapp.MustBuild()
	corpus := LearningCorpus()
	learn := func(disable bool) (int, uint64) {
		eng := daikon.NewEngine()
		rec := trace.NewRecorder(eng)
		rec.DisableDupElim = disable
		machine, err := vm.New(vm.Config{Image: app.Image, Input: corpus, Plugins: []vm.Plugin{rec}})
		if err != nil {
			t.Fatal(err)
		}
		if res := machine.Run(); res.Outcome != vm.OutcomeExit {
			t.Fatal(res.Outcome)
		}
		rec.CommitRun()
		return eng.Finalize(daikon.Options{}).Len(), rec.Observations()
	}
	withElim, obsWith := learn(false)
	without, obsWithout := learn(true)
	if withElim >= without {
		t.Errorf("dup elimination did not shrink invariants: %d vs %d", withElim, without)
	}
	if obsWith >= obsWithout {
		t.Errorf("dup elimination did not shrink trace: %d vs %d", obsWith, obsWithout)
	}
}

// TestAblationPointerHeuristicShrinksDatabase: disabling the pointer
// heuristic (§2.2.4) must inflate the database with bound invariants over
// pointer variables.
func TestAblationPointerHeuristicShrinksDatabase(t *testing.T) {
	app := webapp.MustBuild()
	corpus := LearningCorpus()
	with, _, err := core.Learn(app.Image, core.LearnConfig{Inputs: [][]byte{corpus}})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := core.Learn(app.Image, core.LearnConfig{
		Inputs:  [][]byte{corpus},
		Options: daikon.Options{DisablePointerHeuristic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if with.Len() >= without.Len() {
		t.Errorf("pointer heuristic did not shrink DB: %d vs %d", with.Len(), without.Len())
	}
}

// TestAblationSameBlockStillRepairs: lifting the same-block restriction
// (§2.4.1) widens the candidate set but must not change the repair outcome
// for the exploits ("in practice this optimization did not remove any
// useful repairs").
func TestAblationSameBlockStillRepairs(t *testing.T) {
	setup := getSetup(t, false)
	for _, id := range []string{"290162", "296134", "div-zero", "unaligned"} {
		ex := exploitByID(t, id)
		cv, err := core.New(core.Config{
			Image:      setup.App.Image,
			Invariants: setup.DB,
			StackScope: 1, Monitors: replay.AllMonitors(),
			DisableSameBlockRestriction: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := RunSingleVariant(cv, setup.App, ex, 24)
		if !res.Patched {
			t.Errorf("%s: unrestricted candidate selection broke the repair", id)
		}
	}
}

// TestAblationReverseOrderStillRepairs: the §2.6 ordering affects which
// repair is evaluated first, never whether a working repair is eventually
// found.
func TestAblationReverseOrderStillRepairs(t *testing.T) {
	setup := getSetup(t, false)
	for _, id := range []string{"269095", "290162", "295854", "div-zero", "unaligned", "hang-loop"} {
		ex := exploitByID(t, id)
		cv, err := core.New(core.Config{
			Image:      setup.App.Image,
			Invariants: setup.DB,
			StackScope: 1, Monitors: replay.AllMonitors(),
			ReverseRepairOrder: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := RunSingleVariant(cv, setup.App, ex, 24)
		if !res.Patched {
			t.Errorf("%s: reversed repair order never converged", id)
		}
	}
}

// TestHeapGuardRequiredForHeapExploits: without Heap Guard the two
// canary-detected exploits are neither detected nor repaired, matching
// §4.4.4 ("Heap Guard is required for the remaining two exploits").
func TestHeapGuardRequiredForHeapExploits(t *testing.T) {
	setup := getSetup(t, false)
	for _, id := range []string{"285595", "325403"} {
		ex := exploitByID(t, id)
		cv, err := core.New(core.Config{
			Image:      setup.App.Image,
			Invariants: setup.DB,
			StackScope: 2,
			Monitors:   replay.Monitors{MemoryFirewall: true, HeapGuard: false, ShadowStack: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := cv.Execute(AttackInput(setup.App, ex, 0))
		if out.Outcome == vm.OutcomeFailure {
			t.Errorf("%s: detected without Heap Guard by %s", id, out.Failure.Monitor)
		}
		if len(cv.Cases()) != 0 {
			t.Errorf("%s: case opened without detection", id)
		}
	}
}

// TestMemoryFirewallSufficientForSeven: Memory Firewall and the Shadow
// Stack alone (no Heap Guard) suffice for the seven exploits ClearView
// patched during the exercise — the §4.4.4 observation that "the use of
// Heap Guard did not improve ClearView's performance in the Red Team
// exercise".
func TestMemoryFirewallSufficientForSeven(t *testing.T) {
	setup := getSetup(t, false)
	seven := []string{"269095", "290162", "295854", "296134", "311710", "312278", "320182"}
	for _, id := range seven {
		ex := exploitByID(t, id)
		cv, err := core.New(core.Config{
			Image:      setup.App.Image,
			Invariants: setup.DB,
			StackScope: 1,
			Monitors:   replay.Monitors{MemoryFirewall: true, HeapGuard: false, ShadowStack: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := RunSingleVariant(cv, setup.App, ex, 24)
		if !res.Patched {
			t.Errorf("%s: not patched with Memory Firewall + Shadow Stack only", id)
		}
	}
}
