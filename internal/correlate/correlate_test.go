package correlate

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

func v(pc uint32, slot uint8) daikon.VarID { return daikon.VarID{PC: pc, Slot: slot} }

func obs(id string, sat bool) Observation {
	return Observation{InvID: id, FailureID: "f", Satisfied: sat}
}

func TestClassifyHighly(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", true), obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != HighlyCorrelated {
		t.Errorf("got %v, want highly", got)
	}
}

func TestClassifyModerately(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false), obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != ModeratelyCorrelated {
		t.Errorf("got %v, want moderately", got)
	}
}

func TestClassifySlightly(t *testing.T) {
	// Violated mid-run once, but satisfied at the last check of one
	// failing run: only slightly correlated.
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false), obs("i", true)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != SlightlyCorrelated {
		t.Errorf("got %v, want slightly", got)
	}
}

func TestClassifyNot(t *testing.T) {
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", true)}},
		{Detected: true, Obs: []Observation{obs("i", true)}},
	}
	if got := Classify(runs)["i"]; got != NotCorrelated {
		t.Errorf("got %v, want not", got)
	}
}

func TestClassifyUncheckedInOneFailingRun(t *testing.T) {
	// Checked and violated-last in run 1, never executed in failing run 2:
	// cannot be highly or moderately correlated.
	runs := []RunLog{
		{Detected: true, Obs: []Observation{obs("i", false)}},
		{Detected: true, Obs: nil},
	}
	if got := Classify(runs)["i"]; got != SlightlyCorrelated {
		t.Errorf("got %v, want slightly", got)
	}
}

func TestClassifyIgnoresNormalRuns(t *testing.T) {
	// Violations in non-detecting runs do not affect the classification.
	runs := []RunLog{
		{Detected: false, Obs: []Observation{obs("i", false)}},
		{Detected: true, Obs: []Observation{obs("i", true), obs("i", false)}},
	}
	if got := Classify(runs)["i"]; got != HighlyCorrelated {
		t.Errorf("got %v, want highly", got)
	}
}

func TestSelectForRepairGating(t *testing.T) {
	mk := func(pc uint32) Candidate {
		return Candidate{Inv: &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(pc, 0)}}
	}
	c1, c2, c3 := mk(0x100), mk(0x108), mk(0x110)
	cands := []Candidate{c1, c2, c3}
	corr := map[string]Correlation{
		c1.Inv.ID(): HighlyCorrelated,
		c2.Inv.ID(): ModeratelyCorrelated,
		c3.Inv.ID(): SlightlyCorrelated,
	}
	got := SelectForRepair(cands, corr)
	if len(got) != 1 || got[0].Inv != c1.Inv {
		t.Fatalf("with a highly correlated invariant, only it is selected; got %v", got)
	}
	// Without any highly correlated invariant, moderately wins.
	corr[c1.Inv.ID()] = NotCorrelated
	got = SelectForRepair(cands, corr)
	if len(got) != 1 || got[0].Inv != c2.Inv {
		t.Fatalf("moderately gating wrong: %v", got)
	}
	// Slightly correlated invariants never produce repairs.
	corr[c2.Inv.ID()] = NotCorrelated
	if got = SelectForRepair(cands, corr); len(got) != 0 {
		t.Fatalf("slightly correlated produced repairs: %v", got)
	}
}

// buildProgram assembles a caller/callee pair for candidate selection.
func buildProgram(t *testing.T) (*image.Image, map[string]uint32, *cfg.DB) {
	t.Helper()
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 7)
	a.Label("callsite")
	a.Call("leaf")
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	a.Label("leaf")
	a.MovRR(isa.ECX, isa.EDX)
	a.Label("failhere")
	a.Ret()
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}
	db := cfg.NewDB(img)
	db.NoteBlockExec(labels["main"])
	db.NoteBlockExec(labels["leaf"])
	return img, labels, db
}

func TestSelectCandidatesScopesToLowestProc(t *testing.T) {
	_, labels, cfgdb := buildProgram(t)
	inv := daikon.NewDB()
	leafInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["leaf"], 0), Bound: 1}
	mainInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["main"], 0), Bound: 1}
	inv.Add(leafInv)
	inv.Add(mainInv)

	stack := []uint32{labels["callsite"] + isa.InstSize}
	got := SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 1})
	if len(got) != 1 || got[0].Inv != leafInv || got[0].Depth != 0 {
		t.Fatalf("scope 1 candidates = %+v", got)
	}

	got = SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 2})
	if len(got) != 2 {
		t.Fatalf("scope 2 candidates = %+v", got)
	}
	if got[1].Inv != mainInv || got[1].Depth != 1 {
		t.Errorf("caller candidate = %+v", got[1])
	}
}

func TestSelectCandidatesSkipsEmptyProcs(t *testing.T) {
	// "The lowest procedure on the stack WITH invariants": a leaf with no
	// invariants does not consume the scope budget.
	_, labels, cfgdb := buildProgram(t)
	inv := daikon.NewDB()
	mainInv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["main"], 0), Bound: 1}
	inv.Add(mainInv)

	stack := []uint32{labels["callsite"] + isa.InstSize}
	got := SelectCandidates(inv, cfgdb, labels["failhere"], stack, Config{StackScope: 1})
	if len(got) != 1 || got[0].Inv != mainInv {
		t.Fatalf("candidates = %+v", got)
	}
}

func TestSelectCandidatesTwoVarSameBlockOnly(t *testing.T) {
	// A two-variable invariant checked outside the failure instruction's
	// basic block must be excluded (§2.4.1's optimization).
	a := asm.New(0x1000)
	a.Label("f")
	a.MovRI(isa.EDX, 1) // block 1 (ends at branch)
	a.MovRI(isa.ECX, 2)
	a.CmpRI(isa.EDX, 0)
	a.Je("end")
	a.Label("block2")
	a.MovRR(isa.EBX, isa.ECX)
	a.Label("fail2")
	a.MovRR(isa.ESI, isa.EBX)
	a.Label("end")
	a.Ret()
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Base: 0x1000, Entry: labels["f"], Code: code}
	cfgdb := cfg.NewDB(img)
	cfgdb.NoteBlockExec(labels["f"])

	inv := daikon.NewDB()
	// Two-var invariant inside block 1 (checked at its second instr).
	crossBlock := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["f"], 0), Var2: v(labels["f"]+8, 0),
	}
	// Two-var invariant inside block 2, same block as the failure.
	sameBlock := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["block2"], 0), Var2: v(labels["fail2"], 0),
	}
	// One-var invariant in block 1: always a candidate (predominator).
	oneVar := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["f"], 0)}
	inv.Add(crossBlock)
	inv.Add(sameBlock)
	inv.Add(oneVar)

	got := SelectCandidates(inv, cfgdb, labels["fail2"], nil, Config{StackScope: 1})
	found := map[string]bool{}
	for _, c := range got {
		found[c.Inv.ID()] = true
	}
	if found[crossBlock.ID()] {
		t.Error("cross-block two-var invariant selected")
	}
	if !found[sameBlock.ID()] {
		t.Error("same-block two-var invariant not selected")
	}
	if !found[oneVar.ID()] {
		t.Error("one-var predominator invariant not selected")
	}
}

func TestCheckSetObservesAndCounts(t *testing.T) {
	// Run a tiny program with a checking patch installed and verify the
	// observation stream and violation accounting.
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 3)
	a.Label("site")
	a.MovRR(isa.ECX, isa.EDX)
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, _ := a.Assemble()
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}

	inv := &daikon.Invariant{Kind: daikon.KindLowerBound, Var: v(labels["site"], 0), Bound: 5}
	cs := BuildCheckSet("fail@x", []Candidate{{Inv: inv}})
	if len(cs.Patches) != 1 {
		t.Fatalf("patches = %d", len(cs.Patches))
	}
	cs.StartRun()
	machine, err := vm.New(vm.Config{Image: img, Patches: cs.Patches})
	if err != nil {
		t.Fatal(err)
	}
	if res := machine.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatal(res.Outcome)
	}
	cs.LogRun(RunLog{Detected: true, Obs: cs.DrainRun()})
	if cs.TotalChecks != 1 || cs.TotalViolations != 1 {
		t.Errorf("checks/violations = %d/%d", cs.TotalChecks, cs.TotalViolations)
	}
	if got := Classify(cs.Runs())[inv.ID()]; got != HighlyCorrelated {
		t.Errorf("classification = %v", got)
	}
}

func TestCheckSetTwoVarAcrossInstructions(t *testing.T) {
	// v1 at "first" (EDX), v2 at "second" (ECX): the staging patch carries
	// v1 to the check site.
	a := asm.New(0x1000)
	a.Label("main")
	a.MovRI(isa.EDX, 9)
	a.MovRI(isa.ECX, 4)
	a.Label("first")
	a.MovRR(isa.EBX, isa.EDX) // observes EDX=9
	a.Label("second")
	a.MovRR(isa.ESI, isa.ECX) // observes ECX=4
	a.MovRI(isa.EAX, 0)
	a.Sys(isa.SysExit)
	code, labels, _ := a.Assemble()
	img := &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}

	inv := &daikon.Invariant{
		Kind: daikon.KindLessThan,
		Var:  v(labels["first"], 0), Var2: v(labels["second"], 0),
	}
	cs := BuildCheckSet("fail@x", []Candidate{{Inv: inv}})
	if len(cs.Patches) != 2 {
		t.Fatalf("patches = %d, want stage+check", len(cs.Patches))
	}
	cs.StartRun()
	machine, _ := vm.New(vm.Config{Image: img, Patches: cs.Patches})
	machine.Run()
	cs.LogRun(RunLog{Detected: true, Obs: cs.DrainRun()})
	// 9 <= 4 is violated.
	if cs.TotalChecks != 1 || cs.TotalViolations != 1 {
		t.Errorf("checks/violations = %d/%d", cs.TotalChecks, cs.TotalViolations)
	}
}
