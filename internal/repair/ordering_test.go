package repair

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/isa"
)

// orderFixture assembles a program with a call site and builds the
// correlated candidates a real checking phase would hand GenerateAll:
// a one-of over the call target, a lower bound, and a less-than.
func orderFixture(t *testing.T) ([]correlate.Candidate, InstAt, func(uint32) (uint32, bool)) {
	t.Helper()
	img, labels := mkImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 5)
		a.Label("site")
		a.CallR(isa.EAX)
		a.Label("after")
		a.MovRI(isa.EBX, 1)
		a.Ret()
	})
	site := labels["site"]
	after := labels["after"]
	cands := []correlate.Candidate{
		{Inv: &daikon.Invariant{Kind: daikon.KindOneOf, Var: vid(site, 0), Values: []uint32{0x1000, 0x2000}}, Depth: 0},
		{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: vid(after, 1), Bound: 1}, Depth: 0},
		{Inv: &daikon.Invariant{Kind: daikon.KindLessThan, Var: vid(site, 0), Var2: vid(after, 1)}, Depth: 1},
	}
	sp := func(pc uint32) (uint32, bool) { return 8, true }
	return cands, img.InstAt, sp
}

// TestGenerateAllDeterministicOrder: same candidates ⇒ same repairs in
// the same order, run after run. The evaluator's tie-break starts from
// this order, so any instability here would make adopted repairs flap
// between identical campaigns.
func TestGenerateAllDeterministicOrder(t *testing.T) {
	cands, instAt, sp := orderFixture(t)
	ref := GenerateAll(cands, instAt, sp)
	if len(ref) == 0 {
		t.Fatal("fixture generated no repairs")
	}
	refIDs := make([]string, len(ref))
	for i, r := range ref {
		refIDs[i] = r.ID()
	}
	for trial := 0; trial < 20; trial++ {
		got := GenerateAll(cands, instAt, sp)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d repairs, want %d", trial, len(got), len(ref))
		}
		for i, r := range got {
			if r.ID() != refIDs[i] {
				t.Fatalf("trial %d: repair %d = %s, want %s", trial, i, r.ID(), refIDs[i])
			}
		}
	}
}

// TestLessIsStrictWeakOrder: the tie-break comparator must be a strict
// weak order over a representative repair set — irreflexive,
// antisymmetric, and total on distinct IDs — or sort.SliceStable would
// silently produce platform-dependent rankings.
func TestLessIsStrictWeakOrder(t *testing.T) {
	cands, instAt, sp := orderFixture(t)
	rs := GenerateAll(cands, instAt, sp)
	for _, a := range rs {
		if Less(a, a) {
			t.Fatalf("Less(%s, %s) is true: not irreflexive", a.ID(), a.ID())
		}
		for _, b := range rs {
			if a == b {
				continue
			}
			ab, ba := Less(a, b), Less(b, a)
			if ab && ba {
				t.Fatalf("Less not antisymmetric for %s / %s", a.ID(), b.ID())
			}
			if !ab && !ba && a.ID() != b.ID() {
				t.Fatalf("Less cannot order distinct repairs %s / %s", a.ID(), b.ID())
			}
		}
	}
	// Transitivity over every triple (the set is small).
	for _, a := range rs {
		for _, b := range rs {
			for _, c := range rs {
				if Less(a, b) && Less(b, c) && !Less(a, c) {
					t.Fatalf("Less not transitive: %s < %s < %s but not %s < %s",
						a.ID(), b.ID(), c.ID(), a.ID(), c.ID())
				}
			}
		}
	}
}

// TestGenerateAllDepthCarriesThrough: the candidate's stack depth must
// survive into every generated repair — Less orders by it first, so a
// dropped depth would corrupt the whole ranking.
func TestGenerateAllDepthCarriesThrough(t *testing.T) {
	cands, instAt, sp := orderFixture(t)
	for _, r := range GenerateAll(cands, instAt, sp) {
		want := 0
		for _, c := range cands {
			if c.Inv.ID() == r.Inv.ID() {
				want = c.Depth
			}
		}
		if r.Depth != want {
			t.Fatalf("repair %s carries depth %d, candidate had %d", r.ID(), r.Depth, want)
		}
	}
}
