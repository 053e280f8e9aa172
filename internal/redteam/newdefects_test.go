package redteam

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/daikon"
	"repro/internal/monitor"
	"repro/internal/repair"
	"repro/internal/replay"
	"repro/internal/vm"
)

// newClassExpectations pins the full pipeline story for each extended
// failure class: which detector fires, what kind of failure it reports,
// which invariant family corrects it, and which repair strategy the
// evaluator adopts.
var newClassExpectations = map[string]struct {
	monitor  string
	kind     string
	site     string // webapp label of the failure location
	invKind  daikon.Kind
	strategy repair.Strategy
}{
	"div-zero": {
		monitor: "FaultGuard", kind: "divide by zero", site: "site_divzero_div",
		invKind: daikon.KindNonzero, strategy: repair.StratNonzeroClamp,
	},
	"unaligned": {
		monitor: "FaultGuard", kind: "unaligned access", site: "site_unaligned_load",
		invKind: daikon.KindModulus, strategy: repair.StratClampMod,
	},
	"hang-loop": {
		monitor: "HangGuard", kind: "runaway loop", site: "site_hang_loop",
		invKind: daikon.KindNonzero, strategy: repair.StratNonzeroClamp,
	},
}

// TestNewClassEndToEnd drives each extended failure class through the
// whole live pipeline: the attack is detected by its new monitor at the
// seeded site, the correlated invariant comes from the new family, a
// repair of the new strategy is generated and adopted, and the patched
// application survives re-attacks while rendering subsequent legitimate
// pages bit-identically to the bare application.
func TestNewClassEndToEnd(t *testing.T) {
	setup := getSetup(t, false)
	for _, ex := range NewClassExploits() {
		ex := ex
		t.Run(ex.Bugzilla, func(t *testing.T) {
			want := newClassExpectations[ex.Bugzilla]
			cv, err := setup.ClearView(1)
			if err != nil {
				t.Fatal(err)
			}

			// Presentation 1: detection with full provenance.
			out := cv.Execute(AttackInput(setup.App, ex, 0))
			if out.Outcome != vm.OutcomeFailure || out.Failure == nil {
				t.Fatalf("first presentation not monitor-detected: %+v", out)
			}
			f := out.Failure
			if f.Monitor != want.monitor || f.Kind != want.kind {
				t.Fatalf("detected by %s (%s), want %s (%s)", f.Monitor, f.Kind, want.monitor, want.kind)
			}
			if site := setup.App.Labels[want.site]; f.PC != site {
				t.Fatalf("failure at %#x, want %s (%#x)", f.PC, want.site, site)
			}
			if len(f.Stack) == 0 {
				t.Fatal("failure carries no shadow-stack provenance")
			}

			// Presentations 2..4: checking, correlation, repair, adoption.
			res := RunSingleVariant(cv, setup.App, ex, 20)
			if !res.Patched || res.Presentations+1 != expectedPresentations[ex.Bugzilla] {
				t.Fatalf("campaign after detection: %+v, want patched at %d total presentations",
					res, expectedPresentations[ex.Bugzilla])
			}
			fc := cv.Case(f.PC)
			if fc == nil || fc.State != core.StatePatched {
				t.Fatalf("case not patched: %+v", fc)
			}
			adopted := fc.Current.Repair
			if adopted.Inv.Kind != want.invKind {
				t.Errorf("adopted invariant kind %v, want %v", adopted.Inv.Kind, want.invKind)
			}
			if adopted.Strategy != want.strategy {
				t.Errorf("adopted strategy %v, want %v", adopted.Strategy, want.strategy)
			}
			if corr := fc.Correlations[adopted.Inv.ID()]; corr < 2 {
				t.Errorf("adopted invariant only %v correlated", corr)
			}

			// Re-attacks survive, and the legitimate pages that follow the
			// attack render bit-identically to the bare application.
			bare, err := vm.New(vm.Config{Image: setup.App.Image, Input: subsequentPages()})
			if err != nil {
				t.Fatal(err)
			}
			wantTail := bare.Run().Output
			for i := 0; i < 3; i++ {
				out := cv.Execute(AttackInput(setup.App, ex, 0))
				if out.Outcome != vm.OutcomeExit || out.ExitCode != 0 {
					t.Fatalf("re-attack %d not survived: %+v", i, out)
				}
				if !bytes.HasSuffix(out.Output, wantTail) {
					t.Fatalf("re-attack %d corrupted the subsequent pages' rendering", i)
				}
			}
		})
	}
}

// TestNewClassReplayFastPath: with the record/replay fast path on, each
// new failure class converges in two presentations — the first records,
// completes checking against the tape, and farm-ranks the candidates; the
// second survives under the adopted repair.
func TestNewClassReplayFastPath(t *testing.T) {
	setup := getSetup(t, false)
	for _, ex := range NewClassExploits() {
		cv, err := setup.ReplayClearView(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := RunSingleVariant(cv, setup.App, ex, 6)
		if !res.Patched || res.Presentations != 2 {
			t.Errorf("%s via replay: %+v, want patched in 2", ex.Bugzilla, res)
		}
	}
}

// TestNewClassMultiVariant mirrors §4.3.4 for the extended classes:
// interleaving byte-distinct exploit variants yields the same patch after
// the same number of presentations as the single-variant attack.
func TestNewClassMultiVariant(t *testing.T) {
	setup := getSetup(t, false)
	for _, ex := range NewClassExploits() {
		if ex.Variants < 2 {
			t.Fatalf("%s has no variants", ex.Bugzilla)
		}
		cv, err := setup.ClearView(1)
		if err != nil {
			t.Fatal(err)
		}
		res := RunMultiVariant(cv, setup.App, ex, 20)
		if !res.Patched || res.Presentations != expectedPresentations[ex.Bugzilla] {
			t.Errorf("%s variants: %+v, want %d", ex.Bugzilla, res, expectedPresentations[ex.Bugzilla])
		}
	}
}

// TestNewClassUndetectedWithoutGuards: without FaultGuard/HangGuard the
// extended-class attacks terminate as plain crashes (or spin to the hard
// step limit) — no failure case ever opens, mirroring the Heap Guard
// ablation of §4.4.4 for the new detector families.
func TestNewClassUndetectedWithoutGuards(t *testing.T) {
	setup := getSetup(t, false)
	for _, ex := range NewClassExploits() {
		cv, err := core.New(core.Config{
			Image:      setup.App.Image,
			Invariants: setup.DB,
			StackScope: 1,
			// The paper's three monitors only.
			Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
			// Keep the undetected hang cheap: the hard step limit is the
			// only thing that ends it.
			MaxSteps: 2 * monitor.DefaultHangBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := cv.Execute(AttackInput(setup.App, ex, 0))
		if out.Outcome != vm.OutcomeCrash {
			t.Errorf("%s without guards: outcome %v, want crash", ex.Bugzilla, out.Outcome)
		}
		if len(cv.Cases()) != 0 {
			t.Errorf("%s: case opened without detection", ex.Bugzilla)
		}
	}
}

// TestNewClassRecordingsVet: recordings of the new failure classes pass
// the farm's replay vetting exactly as sealed — the new monitors and the
// hang budget are part of the recorded machine configuration, so the
// replay reproduces the claimed detection bit for bit — while any
// tampering with the claim (monitor, location, step count) is rejected.
// This is the sanity gate a community manager applies before a foreign
// recording may drive a campaign.
func TestNewClassRecordingsVet(t *testing.T) {
	setup := getSetup(t, false)
	farm := &replay.Farm{}
	for _, ex := range NewClassExploits() {
		rec, res, err := RecordAttack(setup, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil {
			t.Fatalf("%s: recording captured no failure", ex.Bugzilla)
		}
		if err := farm.Vet(rec); err != nil {
			t.Errorf("%s: honest recording rejected: %v", ex.Bugzilla, err)
		}
		tampered := *rec
		f := *rec.Failure
		f.Monitor = "HeapGuard" // relabel the detector
		tampered.Failure = &f
		if err := farm.Vet(&tampered); err == nil {
			t.Errorf("%s: relabelled-monitor recording passed vetting", ex.Bugzilla)
		}
		tampered = *rec
		f = *rec.Failure
		f.PC += 8 // move the claimed failure location
		tampered.Failure = &f
		if err := farm.Vet(&tampered); err == nil {
			t.Errorf("%s: moved-location recording passed vetting", ex.Bugzilla)
		}
		tampered = *rec
		tampered.Steps++ // inflate the claimed work
		if err := farm.Vet(&tampered); err == nil {
			t.Errorf("%s: inflated-steps recording passed vetting", ex.Bugzilla)
		}
	}
}

// TestHangBudgetClearsLegitimateWorkloads pins HangGuard's conservatism:
// every legitimate workload — the full learning corpora and all 57
// evaluation pages — finishes under the full detector set with at least a
// 10x margin below the hang budget, so the watchdog cannot false-positive
// on honest traffic without an order-of-magnitude workload regression
// failing this test first.
func TestHangBudgetClearsLegitimateWorkloads(t *testing.T) {
	setup := getSetup(t, false)
	inputs := [][]byte{LearningCorpus(), ExpandedCorpus()}
	inputs = append(inputs, EvaluationPages()...)
	cv, err := setup.ClearView(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, input := range inputs {
		out := cv.Execute(input)
		if out.Outcome != vm.OutcomeExit || out.ExitCode != 0 {
			t.Fatalf("legitimate input %d did not exit cleanly: %+v", i, out)
		}
		if out.Steps*10 > monitor.DefaultHangBudget {
			t.Errorf("legitimate input %d used %d steps — under 10x margin of the %d hang budget",
				i, out.Steps, monitor.DefaultHangBudget)
		}
	}
	if len(cv.Cases()) != 0 {
		t.Fatalf("legitimate workloads opened %d failure cases", len(cv.Cases()))
	}
}
