package daikon

import (
	"testing"
	"testing/quick"
)

func v(pc uint32, slot uint8) VarID { return VarID{PC: pc, Slot: slot} }

func feed(e *Engine, varID VarID, vals ...uint32) {
	for _, val := range vals {
		e.ObserveBlockPass([]Obs{{Var: varID, Val: val}})
	}
}

func find(db *DB, kind Kind, id VarID) *Invariant {
	for _, inv := range db.All() {
		if inv.Kind == kind && inv.Var == id {
			return inv
		}
	}
	return nil
}

// TestNonzeroInference: a variable never observed zero gets a nonzero
// invariant whose witness is the observed value of smallest magnitude;
// one zero observation kills it.
func TestNonzeroInference(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 0xFFFF_FFF4, 7, 0xFFFF_FFFE) // -12, 7, -2
	db := e.Finalize(Options{})
	inv := find(db, KindNonzero, v(0x100, 0))
	if inv == nil {
		t.Fatal("no nonzero invariant inferred")
	}
	if inv.Bound != -2 {
		t.Errorf("witness = %d, want the smallest-magnitude observation -2", inv.Bound)
	}
	if !inv.Holds(5, 0) || inv.Holds(0, 0) {
		t.Error("nonzero Holds wrong")
	}

	e2 := NewEngine()
	feed(e2, v(0x100, 0), 7, 0, 9)
	if inv := find(e2.Finalize(Options{}), KindNonzero, v(0x100, 0)); inv != nil {
		t.Errorf("nonzero survived a zero observation: %v", inv)
	}
}

// TestModulusInference: values sharing a stride get a congruence
// invariant; the modulus always divides 2^32, so the unsigned mod-2^32
// check in Holds is exact — in particular, every invariant must hold on
// its own training data even when observations straddle the signed
// boundary (5 and -1 are six apart signed but not in Z/2^32).
func TestModulusInference(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 4, 12, 28)
	db := e.Finalize(Options{})
	inv := find(db, KindModulus, v(0x100, 0))
	if inv == nil {
		t.Fatal("no modulus invariant inferred")
	}
	if m, r := inv.Modulus(); m != 8 || r != 4 {
		t.Errorf("learned v ≡ %d (mod %d), want 4 (mod 8)", r, m)
	}
	if !inv.Holds(20, 0) || inv.Holds(22, 0) {
		t.Error("modulus Holds wrong")
	}

	// Signed-boundary soundness: whatever modulus comes out of {5, -1}
	// must hold on both observations (a signed-distance gcd would emit
	// mod 6, which 0xFFFFFFFF violates).
	e2 := NewEngine()
	vals := []uint32{5, 0xFFFF_FFFF}
	feed(e2, v(0x200, 0), vals...)
	if inv := find(e2.Finalize(Options{}), KindModulus, v(0x200, 0)); inv != nil {
		for _, val := range vals {
			if !inv.Holds(val, 0) {
				t.Errorf("inferred %v is violated by its own training value %#x", inv, val)
			}
		}
		if m, _ := inv.Modulus(); (1<<32)%uint64(m) != 0 {
			t.Errorf("modulus %d does not divide 2^32 — unsigned congruence is unsound", m)
		}
	}

	// A constant variable gets no modulus (one-of covers it).
	e3 := NewEngine()
	feed(e3, v(0x300, 0), 8, 8, 8)
	if inv := find(e3.Finalize(Options{}), KindModulus, v(0x300, 0)); inv != nil {
		t.Errorf("modulus inferred for a constant: %v", inv)
	}
}

// TestModulusMergeSound: the merged congruence must hold on every value
// either member observed, including residue distances that cross the
// signed boundary.
func TestModulusMergeSound(t *testing.T) {
	valsA := []uint32{1, 5, 9}        // v ≡ 1 (mod 4)
	valsB := []uint32{0xFFFF_FFFF, 3} // v ≡ 3 (mod 4)
	e1, e2 := NewEngine(), NewEngine()
	feed(e1, v(0x100, 0), valsA...)
	feed(e2, v(0x100, 0), valsB...)
	db1, db2 := e1.Finalize(Options{}), e2.Finalize(Options{})
	db1.Merge(db2, 0)
	if inv := find(db1, KindModulus, v(0x100, 0)); inv != nil {
		for _, val := range append(append([]uint32{}, valsA...), valsB...) {
			if !inv.Holds(val, 0) {
				t.Errorf("merged %v violated by member observation %#x", inv, val)
			}
		}
	}
}

func TestOneOfInference(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 0x2000, 0x3000, 0x2000)
	db := e.Finalize(Options{})
	inv := find(db, KindOneOf, v(0x100, 0))
	if inv == nil {
		t.Fatal("no one-of inferred")
	}
	if len(inv.Values) != 2 || inv.Values[0] != 0x2000 || inv.Values[1] != 0x3000 {
		t.Errorf("values = %v", inv.Values)
	}
	if !inv.Holds(0x2000, 0) || inv.Holds(0x4000, 0) {
		t.Error("Holds wrong")
	}
}

func TestOneOfOverflowDropped(t *testing.T) {
	e := NewEngine()
	e.MaxOneOf = 4
	for i := uint32(0); i < 10; i++ {
		feed(e, v(0x100, 0), 0x200000+i*4)
	}
	db := e.Finalize(Options{})
	if inv := find(db, KindOneOf, v(0x100, 0)); inv != nil {
		t.Errorf("one-of with %d values survived K=4", len(inv.Values))
	}
}

func TestLowerBoundAndPointerHeuristic(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 5, 3, 9)              // small ints -> non-pointer
	feed(e, v(0x108, 0), 0x20000000, 0x200000) // large values -> pointer
	db := e.Finalize(Options{})

	lb := find(db, KindLowerBound, v(0x100, 0))
	if lb == nil || lb.Bound != 3 {
		t.Fatalf("lower bound = %+v", lb)
	}
	neg := int32(-1)
	if !lb.Holds(3, 0) || lb.Holds(uint32(neg), 0) || lb.Holds(2, 0) {
		t.Error("lower-bound Holds wrong")
	}
	if find(db, KindLowerBound, v(0x108, 0)) != nil {
		t.Error("lower bound inferred for a pointer variable")
	}
	// Ablation: with the heuristic disabled the pointer gets a bound too.
	db2 := e.Finalize(Options{DisablePointerHeuristic: true})
	if find(db2, KindLowerBound, v(0x108, 0)) == nil {
		t.Error("ablation did not emit pointer lower bound")
	}
}

func TestNegativeValueMarksNonPointer(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 0x80000000) // negative as int32
	db := e.Finalize(Options{})
	if find(db, KindLowerBound, v(0x100, 0)) == nil {
		t.Error("negative-valued variable treated as pointer")
	}
}

func TestZeroStaysPointerCandidate(t *testing.T) {
	// The paper's rule: negative or in [1, 100000] proves non-pointer.
	// Zero alone proves nothing, so the variable remains a pointer.
	e := NewEngine()
	feed(e, v(0x100, 0), 0, 0x20000000)
	db := e.Finalize(Options{})
	if find(db, KindLowerBound, v(0x100, 0)) != nil {
		t.Error("zero-valued variable lost pointer status")
	}
}

func TestLessThanInference(t *testing.T) {
	e := NewEngine()
	a, b := v(0x100, 0), v(0x108, 0)
	e.ObserveBlockPass([]Obs{{a, 3}, {b, 10}})
	e.ObserveBlockPass([]Obs{{a, 5}, {b, 5}})
	e.ObserveBlockPass([]Obs{{a, 1}, {b, 8}})
	db := e.Finalize(Options{})
	var lt *Invariant
	for _, inv := range db.All() {
		if inv.Kind == KindLessThan {
			lt = inv
		}
	}
	if lt == nil || lt.Var != a || lt.Var2 != b {
		t.Fatalf("less-than = %+v", lt)
	}
	if !lt.Holds(4, 9) || lt.Holds(9, 4) {
		t.Error("less-than Holds wrong")
	}
	if lt.PC() != 0x108 {
		t.Errorf("check PC = %#x, want the later instruction", lt.PC())
	}
}

func TestLessThanViolatedNotInferred(t *testing.T) {
	e := NewEngine()
	a, b := v(0x100, 0), v(0x108, 0)
	e.ObserveBlockPass([]Obs{{a, 3}, {b, 10}})
	e.ObserveBlockPass([]Obs{{a, 20}, {b, 10}})
	db := e.Finalize(Options{})
	for _, inv := range db.All() {
		if inv.Kind == KindLessThan {
			t.Fatalf("contradicted less-than inferred: %v", inv)
		}
	}
}

func TestLessThanOnlyWithinBlockPass(t *testing.T) {
	e := NewEngine()
	a, b := v(0x100, 0), v(0x200, 0)
	// Observed in different passes: no pair relation may form.
	e.ObserveBlockPass([]Obs{{a, 1}})
	e.ObserveBlockPass([]Obs{{b, 5}})
	db := e.Finalize(Options{})
	for _, inv := range db.All() {
		if inv.Kind == KindLessThan {
			t.Fatalf("cross-pass less-than inferred: %v", inv)
		}
	}
}

func TestAlwaysEqualPairYieldsOneDirection(t *testing.T) {
	// Duplicate elimination is the trace front end's static job; if two
	// always-equal variables do reach the engine (e.g. reloads from one
	// address, which the conservative static analysis keeps apart), the
	// engine emits a single less-than direction, not two.
	e := NewEngine()
	a, b := v(0x100, 0), v(0x108, 0)
	e.ObserveBlockPass([]Obs{{a, 7}, {b, 7}})
	e.ObserveBlockPass([]Obs{{a, 9}, {b, 9}})
	db := e.Finalize(Options{})
	n := 0
	for _, inv := range db.All() {
		if inv.Kind == KindLessThan {
			n++
		}
	}
	if n != 1 {
		t.Errorf("less-than invariants for an equal pair = %d, want 1", n)
	}
}

func TestSPOffsetInvariant(t *testing.T) {
	e := NewEngine()
	e.ObserveSP(0x100, 12)
	e.ObserveSP(0x100, 12)
	e.ObserveSP(0x200, 4)
	e.ObserveSP(0x200, 8) // inconsistent
	db := e.Finalize(Options{})
	if d, ok := db.SPOffsetAt(0x100); !ok || d != 12 {
		t.Errorf("sp offset at 0x100 = %d, %v", d, ok)
	}
	if _, ok := db.SPOffsetAt(0x200); ok {
		t.Error("inconsistent sp offset inferred")
	}
	// SP-offset invariants are auxiliary: not returned by At.
	if len(db.At(0x100)) != 0 {
		t.Error("sp-offset leaked into checkable invariants")
	}
}

func TestHoldsProperties(t *testing.T) {
	// Property: a lower-bound invariant inferred from a sample set holds
	// for every sample in the set.
	f := func(vals []int32) bool {
		if len(vals) == 0 {
			return true
		}
		e := NewEngine()
		id := v(0x100, 0)
		for _, val := range vals {
			feed(e, id, uint32(val))
		}
		db := e.Finalize(Options{})
		lb := find(db, KindLowerBound, id)
		if lb == nil {
			return true // all values looked like pointers
		}
		for _, val := range vals {
			if !lb.Holds(uint32(val), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOneOfHoldsAllSamples(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 || len(vals) > 64 {
			return true
		}
		e := NewEngine()
		id := v(0x100, 0)
		for _, val := range vals {
			feed(e, id, val)
		}
		db := e.Finalize(Options{})
		oo := find(db, KindOneOf, id)
		if oo == nil {
			return true // overflowed K
		}
		for _, val := range vals {
			if !oo.Holds(val, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBMarshalRoundTrip(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 5, 7)
	feed(e, v(0x108, 1), 0x2000)
	e.ObserveSP(0x100, 8)
	db := e.Finalize(Options{})
	raw, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDB(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), db.Len())
	}
	for _, inv := range db.All() {
		o, ok := got.ByID[inv.ID()]
		if !ok || o.Kind != inv.Kind || o.Bound != inv.Bound {
			t.Errorf("invariant %s lost or changed", inv.ID())
		}
	}
}

func TestMergeUnionsOneOf(t *testing.T) {
	e1 := NewEngine()
	feed(e1, v(0x100, 0), 0x111111)
	db1 := e1.Finalize(Options{})
	e2 := NewEngine()
	feed(e2, v(0x100, 0), 0x222222)
	db2 := e2.Finalize(Options{})

	db1.Merge(db2, 8)
	oo := find(db1, KindOneOf, v(0x100, 0))
	if oo == nil || len(oo.Values) != 2 {
		t.Fatalf("merged one-of = %+v", oo)
	}
}

func TestMergeDropsContradicted(t *testing.T) {
	// Member 1 saw var X always 5; member 2 saw X vary wildly so it has a
	// lower bound but an overflowed one-of. After merge the community DB
	// must not claim one-of for X.
	e1 := NewEngine()
	feed(e1, v(0x100, 0), 5)
	db1 := e1.Finalize(Options{})

	e2 := NewEngine()
	e2.MaxOneOf = 2
	feed(e2, v(0x100, 0), 1, 2, 3, 4, 5)
	db2 := e2.Finalize(Options{})

	db1.Merge(db2, 8)
	if find(db1, KindOneOf, v(0x100, 0)) != nil {
		t.Error("contradicted one-of survived merge")
	}
	lb := find(db1, KindLowerBound, v(0x100, 0))
	if lb == nil || lb.Bound != 1 {
		t.Errorf("merged lower bound = %+v", lb)
	}
}

// TestMergeDropsDisagreeingSPOffset: two members that hold one
// stack-pointer offset with different constants contradict each other, so
// the merge drops it whichever member merges the other. VarsSeen never
// holds an sp-offset's variable, so the adoption pass must not take the
// other member's copy back.
func TestMergeDropsDisagreeingSPOffset(t *testing.T) {
	build := func(delta uint32) *DB {
		e := NewEngine()
		e.ObserveSP(0x100, delta)
		return e.Finalize(Options{})
	}
	for _, order := range [][2]uint32{{4, 0}, {0, 4}} {
		a, b := build(order[0]), build(order[1])
		if _, ok := a.SPOffsetAt(0x100); !ok {
			t.Fatal("member holds no sp-offset at 0x100")
		}
		a.Merge(b, DefaultMaxOneOf)
		if d, ok := a.SPOffsetAt(0x100); ok {
			t.Errorf("merging bound %d into %d kept sp-offset %d", order[1], order[0], d)
		}
	}
}

func TestMergeKeepsUnobserved(t *testing.T) {
	// Invariants about regions the other member never traced survive —
	// this is what makes amortized distributed learning sound.
	e1 := NewEngine()
	feed(e1, v(0x100, 0), 5)
	db1 := e1.Finalize(Options{})
	e2 := NewEngine()
	feed(e2, v(0x900, 0), 9)
	db2 := e2.Finalize(Options{})

	db1.Merge(db2, 8)
	if find(db1, KindOneOf, v(0x100, 0)) == nil {
		t.Error("own unshared invariant dropped")
	}
	if find(db1, KindOneOf, v(0x900, 0)) == nil {
		t.Error("other member's unshared invariant not adopted")
	}
}

func TestMergeOneOfOverflowDropped(t *testing.T) {
	e1 := NewEngine()
	feed(e1, v(0x100, 0), 1000001, 2000001, 3000001)
	db1 := e1.Finalize(Options{})
	e2 := NewEngine()
	feed(e2, v(0x100, 0), 4000001, 5000001, 6000001)
	db2 := e2.Finalize(Options{})
	db1.Merge(db2, 4) // union has 6 values > 4
	if find(db1, KindOneOf, v(0x100, 0)) != nil {
		t.Error("overflowing one-of union survived merge")
	}
}

func TestDBAtIndex(t *testing.T) {
	e := NewEngine()
	feed(e, v(0x100, 0), 5)
	feed(e, v(0x100, 1), 6)
	feed(e, v(0x200, 0), 7)
	db := e.Finalize(Options{})
	if n := len(db.At(0x100)); n != 6 { // 2 vars x (one-of + lower-bound + nonzero)
		t.Errorf("At(0x100) = %d invariants, want 6", n)
	}
	if n := len(db.At(0x999)); n != 0 {
		t.Errorf("At(unknown) = %d", n)
	}
}

func TestInvariantIDStable(t *testing.T) {
	i1 := &Invariant{Kind: KindOneOf, Var: v(0x1010, 2)}
	i2 := &Invariant{Kind: KindOneOf, Var: v(0x1010, 2), Values: []uint32{1}}
	if i1.ID() != i2.ID() {
		t.Error("ID depends on values")
	}
	lt := &Invariant{Kind: KindLessThan, Var: v(0x100, 0), Var2: v(0x108, 1)}
	if lt.ID() == i1.ID() {
		t.Error("kinds collide")
	}
}
