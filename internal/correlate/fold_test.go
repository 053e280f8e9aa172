package correlate

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

// hookCtx returns a machine context positioned at a MOVRR whose slot 0
// reads EDX, and the machine behind it.
func hookCtx(t *testing.T) (*vm.Ctx, *vm.VM) {
	t.Helper()
	a := asm.New(0x1000)
	a.Label("main")
	a.Sys(isa.SysExit)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(vm.Config{Image: &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &vm.Ctx{VM: machine, PC: 0x1000, Inst: isa.Inst{Op: isa.MOVRR, A: isa.EAX, B: isa.EDX, X: isa.NoReg}}
	return ctx, machine
}

// TestFoldedClassifyMatchesPerCheck is the equivalence the fold rests on:
// over seeded random campaigns, Classify of the folded stream CheckSet
// emits equals Classify of the full per-check stream the same checks would
// have produced. Campaigns mix many invariants (some sharing an ID across
// candidates), detected and undetected runs, invariants left unchecked in
// some failing runs, and many checks of one invariant per run; runs end
// either filed in the set's run log (LogRun, whose detected count must
// stay exact) or drained bare (DrainRun, a community node's path).
func TestFoldedClassifyMatchesPerCheck(t *testing.T) {
	ctx, machine := hookCtx(t)
	r := rand.New(rand.NewSource(1))
	seen := map[Correlation]bool{}
	for trial := 0; trial < 500; trial++ {
		var cands []Candidate
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			inv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(0x1000+uint32(i)*8, 0)}
			cands = append(cands, Candidate{Inv: inv})
			if r.Intn(5) == 0 { // a second candidate for the same invariant
				dup := *inv
				cands = append(cands, Candidate{Inv: &dup})
			}
		}
		cs := BuildCheckSet("fail@x", cands)
		if len(cs.Patches) != len(cands) {
			t.Fatalf("patches = %d for %d one-variable candidates", len(cs.Patches), len(cands))
		}
		var raw, folded []RunLog
		var checks, violations uint64
		logged := 0
		for run, runs := 0, 1+r.Intn(6); run < runs; run++ {
			detected := r.Intn(4) != 0
			cs.StartRun()
			var seq []Observation
			active := r.Perm(len(cands))[:r.Intn(len(cands)+1)]
			if len(active) > 0 {
				for ev, n := 0, r.Intn(40); ev < n; ev++ {
					k := active[r.Intn(len(active))]
					sat := r.Intn(3) != 0
					machine.CPU.Regs[isa.EDX] = 1
					if !sat {
						machine.CPU.Regs[isa.EDX] = ^uint32(0) // -1 < 0
					}
					if err := cs.Patches[k].Hook(ctx); err != nil {
						t.Fatal(err)
					}
					seq = append(seq, Observation{InvID: cands[k].Inv.ID(), FailureID: "fail@x", Satisfied: sat})
					checks++
					if !sat {
						violations++
					}
				}
			}
			raw = append(raw, RunLog{Detected: detected, Obs: seq})
			if r.Intn(2) == 0 {
				cs.LogRun(RunLog{Detected: detected, Obs: cs.DrainRun()})
				folded = append(folded, cs.Runs()[len(cs.Runs())-1])
				if detected {
					logged++
				}
			} else {
				folded = append(folded, RunLog{Detected: detected, Obs: cs.DrainRun()})
			}
			checkCanonical(t, folded[len(folded)-1].Obs)
		}
		want, got := Classify(raw), Classify(folded)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: folded Classify = %v, per-check Classify = %v", trial, got, want)
		}
		if cs.DetectedRuns() != logged {
			t.Fatalf("trial %d: DetectedRuns = %d, want %d", trial, cs.DetectedRuns(), logged)
		}
		if cs.TotalChecks != checks || cs.TotalViolations != violations {
			t.Fatalf("trial %d: checks/violations = %d/%d, want %d/%d",
				trial, cs.TotalChecks, cs.TotalViolations, checks, violations)
		}
		for _, c := range want {
			seen[c] = true
		}
	}
	for _, c := range []Correlation{NotCorrelated, SlightlyCorrelated, ModeratelyCorrelated, HighlyCorrelated} {
		if !seen[c] {
			t.Errorf("the generator never produced a %s-correlated invariant", c)
		}
	}
}

// checkCanonical demands a run's observations are in canonical folded
// form: per invariant, [violated, last] or [last], adjacent.
func checkCanonical(t *testing.T, obs []Observation) {
	t.Helper()
	done := map[string]bool{}
	for i := 0; i < len(obs); i++ {
		id := obs[i].InvID
		if done[id] {
			t.Fatalf("invariant %s emitted twice in one run: %v", id, obs)
		}
		done[id] = true
		if i+1 < len(obs) && obs[i+1].InvID == id {
			if obs[i].Satisfied {
				t.Fatalf("invariant %s: a two-entry fold must open with a violation: %v", id, obs)
			}
			i++
		}
	}
}

// TestCheckHooksZeroAllocs: one check — one-variable, two-variable at one
// instruction, and the staged two-variable pair — allocates nothing.
func TestCheckHooksZeroAllocs(t *testing.T) {
	ctx, machine := hookCtx(t)
	machine.CPU.Regs[isa.EDX] = 7
	add := isa.Inst{Op: isa.ADDRR, A: isa.EAX, B: isa.EDX, X: isa.NoReg}
	cands := []Candidate{
		{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(0x1000, 0), Bound: 5}},
		{Inv: &daikon.Invariant{Kind: daikon.KindOneOf, Var: v(0x1008, 0), Values: []uint32{3, 7, 9}}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: v(0x1010, 0), Var2: v(0x1010, 1)}},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: v(0x1018, 0), Var2: v(0x1020, 0)}},
	}
	cs := BuildCheckSet("fail@x", cands)
	cs.StartRun()
	if len(cs.Patches) != 5 {
		t.Fatalf("patches = %d, want 1+1+1+2", len(cs.Patches))
	}
	for _, tc := range []struct {
		name  string
		inst  isa.Inst
		hooks []*vm.Patch
	}{
		{"one-variable", ctx.Inst, cs.Patches[0:1]},
		{"one-of", ctx.Inst, cs.Patches[1:2]},
		{"two-variable same instruction", add, cs.Patches[2:3]},
		{"two-variable staged", ctx.Inst, cs.Patches[3:5]},
	} {
		ctx.Inst = tc.inst
		before := cs.TotalChecks
		allocs := testing.AllocsPerRun(1000, func() {
			for _, p := range tc.hooks {
				if err := p.Hook(ctx); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s check allocated %.0f times", tc.name, allocs)
		}
		if cs.TotalChecks == before {
			t.Errorf("%s check recorded nothing", tc.name)
		}
	}
	if obs := cs.DrainRun(); len(obs) == 0 || len(obs) > 2*len(cands) {
		t.Fatalf("drained %d observations for %d invariants", len(obs), len(cands))
	}
}
