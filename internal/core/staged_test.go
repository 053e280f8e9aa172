package core

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/replay"
	"repro/internal/vm"
)

func TestStagedLearningRepairsAfterFailure(t *testing.T) {
	// The §3.1 staged strategy: no invariants exist before the first
	// failure; the failure's location and stack select the region, a
	// replay pass learns only there, and the ensuing pipeline repairs the
	// error as usual.
	im, _ := underflowProgram(t)
	recorded := [][]byte{{5}, {6}, {7}, {8}} // the phase-1 input log

	// Phase 1: run without learning, populating only the CFG database.
	cfgdb := cfg.NewDB(im)
	empty := daikon.NewDB()
	cv0, err := New(Config{
		Image: im, Invariants: empty, CFG: cfgdb,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range recorded {
		if res := cv0.Execute(in); res.Outcome != vm.OutcomeExit {
			t.Fatalf("phase-1 input failed: %+v", res)
		}
	}

	// The failure arrives.
	attack := []byte{4}
	res := cv0.Execute(attack)
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("attack not detected: %+v", res)
	}

	// Phase 2: learn only around the failure by replaying the log. The
	// region here is the failure procedure alone (the tightest §3.1
	// configuration); passing the call stack would widen it to the
	// callers as well.
	db, stats, err := StagedLearn(im, cfgdb, recorded, res.Failure.PC, nil, daikon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("staged learning produced no invariants")
	}

	// The staged database is focused: a full trace sees strictly more.
	fullDB, fullStats, err := Learn(im, LearnConfig{Inputs: recorded})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() >= fullDB.Len() {
		t.Errorf("staged DB (%d) not smaller than full DB (%d)", db.Len(), fullDB.Len())
	}
	if stats.Observations >= fullStats.Observations {
		t.Errorf("staged tracing (%d obs) not cheaper than full (%d)", stats.Observations, fullStats.Observations)
	}

	// A fresh instance armed with the staged database repairs the error
	// in the usual four presentations.
	cv, err := New(Config{
		Image: im, Invariants: db, CFG: cfgdb,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cv.Execute(attack)
	}
	if final := cv.Execute(attack); final.Outcome != vm.OutcomeExit {
		t.Fatalf("staged-learning repair failed: %+v", final)
	}
}

func TestFailureCaseReport(t *testing.T) {
	cv, labels := underflowClearView(t, 1)
	attack := []byte{4}
	for i := 0; i < 4; i++ {
		cv.Execute(attack)
	}
	fc := cv.Case(labels["store"])
	if fc == nil {
		t.Fatal("no case")
	}
	rep := fc.Report()
	for _, want := range []string{
		"Failure fail@", "location:", "status:   patched",
		"correlated invariants:", "candidate repairs", "checks executed:",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// The deployed repair is marked.
	if !strings.Contains(rep, "*") {
		t.Error("deployed repair not marked in report")
	}
}
