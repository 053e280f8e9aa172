package evaluate

import (
	"testing"
	"testing/quick"

	"repro/internal/daikon"
	"repro/internal/repair"
	"repro/internal/vm"
)

// TestRunFailed: a run under a candidate fails on a recurrence, a crash or
// a nonzero exit; a clean exit, or a failure at another location
// (recurred false), is a success.
func TestRunFailed(t *testing.T) {
	for _, tc := range []struct {
		recurred bool
		outcome  vm.Outcome
		exitCode uint32
		want     bool
	}{
		{false, vm.OutcomeExit, 0, false},
		{false, vm.OutcomeExit, 1, true},
		{false, vm.OutcomeCrash, 0, true},
		{false, vm.OutcomeFailure, 0, false},
		{true, vm.OutcomeFailure, 0, true},
		{true, vm.OutcomeExit, 0, true},
	} {
		if got := RunFailed(tc.recurred, tc.outcome, tc.exitCode); got != tc.want {
			t.Errorf("RunFailed(%v, %v, %d) = %v, want %v", tc.recurred, tc.outcome, tc.exitCode, got, tc.want)
		}
	}
}

func mkRepairs(n int) []*repair.Repair {
	inv := &daikon.Invariant{Kind: daikon.KindOneOf, Var: daikon.VarID{PC: 0x100}, Values: []uint32{1}}
	out := make([]*repair.Repair, n)
	for i := range out {
		out[i] = &repair.Repair{
			Inv: inv, Strategy: repair.StratSetValue,
			Value: uint32(i), PC: 0x100,
		}
	}
	return out
}

func TestBestPrefersUntriedOverFailed(t *testing.T) {
	rs := mkRepairs(3)
	ev := New(rs, 1)
	first := ev.Best()
	if first.Repair != rs[0] {
		t.Fatalf("initial best = %v", first.Repair)
	}
	ev.RecordFailure(rs[0].ID())
	if ev.Best().Repair != rs[1] {
		t.Errorf("after failure, best = %v", ev.Best().Repair)
	}
}

func TestScoreFormula(t *testing.T) {
	e := &Entry{Successes: 3, Failures: 1}
	if got := e.Score(2); got != 2 { // (3-1) + 0 bonus (has failed)
		t.Errorf("score = %d, want 2", got)
	}
	e2 := &Entry{Successes: 3}
	if got := e2.Score(2); got != 5 { // (3-0) + 2
		t.Errorf("score = %d, want 5", got)
	}
}

func TestAlwaysSuccessfulRepairStaysBest(t *testing.T) {
	rs := mkRepairs(2)
	ev := New(rs, 1)
	for i := 0; i < 5; i++ {
		ev.RecordSuccess(rs[1].ID())
	}
	if ev.Best().Repair != rs[1] {
		t.Error("accumulated successes did not win")
	}
	// A single failure drops it below a fresh candidate only when the
	// score math says so: 5-1=4 vs 0+1=1, so it stays best.
	ev.RecordFailure(rs[1].ID())
	if ev.Best().Repair != rs[1] {
		t.Error("one failure after five successes should not demote")
	}
}

func TestExhausted(t *testing.T) {
	rs := mkRepairs(2)
	ev := New(rs, 1)
	if ev.Exhausted() {
		t.Fatal("fresh evaluator exhausted")
	}
	ev.RecordFailure(rs[0].ID())
	if ev.Exhausted() {
		t.Fatal("one untried candidate remains")
	}
	ev.RecordFailure(rs[1].ID())
	if !ev.Exhausted() {
		t.Fatal("all failed, none succeeded: must be exhausted")
	}
	// A success anywhere un-exhausts.
	ev2 := New(rs, 1)
	ev2.RecordFailure(rs[0].ID())
	ev2.RecordSuccess(rs[0].ID())
	ev2.RecordFailure(rs[1].ID())
	if ev2.Exhausted() {
		t.Fatal("a repair with a success is still worth deploying")
	}
}

func TestEmptyEvaluator(t *testing.T) {
	ev := New(nil, 1)
	if ev.Best() != nil {
		t.Error("Best of empty set")
	}
	if !ev.Exhausted() {
		t.Error("empty set must be exhausted")
	}
}

func TestUnsuccessfulRuns(t *testing.T) {
	rs := mkRepairs(3)
	ev := New(rs, 1)
	ev.RecordFailure(rs[0].ID())
	ev.RecordFailure(rs[1].ID())
	ev.RecordFailure(rs[0].ID())
	if got := ev.UnsuccessfulRuns(); got != 3 {
		t.Errorf("unsuccessful = %d, want 3", got)
	}
}

func TestDuplicateIDsCollapsed(t *testing.T) {
	rs := mkRepairs(1)
	ev := New([]*repair.Repair{rs[0], rs[0]}, 1)
	if ev.Len() != 1 {
		t.Errorf("len = %d, want 1", ev.Len())
	}
}

func TestBestIsMonotoneInScore(t *testing.T) {
	// Property: after any sequence of success/failure events, Best returns
	// an entry with the maximum score.
	f := func(events []bool, idx []uint8) bool {
		rs := mkRepairs(4)
		ev := New(rs, 1)
		for i, success := range events {
			if i >= len(idx) {
				break
			}
			id := rs[int(idx[i])%len(rs)].ID()
			if success {
				ev.RecordSuccess(id)
			} else {
				ev.RecordFailure(id)
			}
		}
		best := ev.Best()
		for _, e := range ev.Entries() {
			if e.Score(ev.Bonus) > best.Score(ev.Bonus) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
