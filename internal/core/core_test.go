package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/daikon"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
)

func buildImage(t testing.TB, build func(a *asm.Assembler)) (*image.Image, map[string]uint32) {
	t.Helper()
	a := asm.New(0x1000)
	build(a)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := labels["main"]
	if !ok {
		entry = 0x1000
	}
	return &image.Image{Base: 0x1000, Entry: entry, Code: code}, labels
}

// learn runs the inputs under the Daikon front end and returns the
// invariant database (only normal runs contribute).
func learn(t testing.TB, im *image.Image, inputs [][]byte) *daikon.DB {
	t.Helper()
	eng := daikon.NewEngine()
	rec := trace.NewRecorder(eng)
	for _, in := range inputs {
		machine, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{rec}, Input: in})
		if err != nil {
			t.Fatal(err)
		}
		if res := machine.Run(); res.Outcome == vm.OutcomeExit {
			rec.CommitRun()
		} else {
			rec.DiscardRun()
		}
	}
	return eng.Finalize(daikon.Options{})
}

// underflowProgram reads one page byte "idx", computes off = idx - 5, and
// stores into a 16-byte heap block at [buf + off*4]. Learning inputs use
// idx 5..8 (off 0..3); the exploit uses idx 4 (off -1), which lands on the
// block's front canary — a Heap Guard failure whose correcting invariant is
// the lower bound off >= 0 at the store.
func underflowProgram(t testing.TB) (*image.Image, map[string]uint32) {
	return buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Sys(isa.SysInAvail)
		a.CmpRI(isa.EAX, 0)
		a.Je("done")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.ESI, isa.EAX) // page buffer
		a.MovRI(isa.ECX, 1)
		a.Sys(isa.SysRead)
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EDI, isa.EAX) // target block
		a.Call("render")
		a.Jmp("main")
		a.Label("done")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)

		a.Label("render")
		a.LoadB(isa.EDX, asm.M(isa.ESI, 0)) // idx
		a.SubRI(isa.EDX, 5)                 // off = idx - 5
		a.MovRI(isa.EBX, 0x7777)
		a.Label("store")
		a.Store(asm.MX(isa.EDI, isa.EDX, 2, 0), isa.EBX)
		// Report the rendered cell (the "display").
		a.Lea(isa.EAX, asm.MX(isa.EDI, isa.EDX, 2, 0))
		a.MovRI(isa.ECX, 4)
		a.Sys(isa.SysWrite)
		a.Ret()
	})
}

func underflowClearView(t testing.TB, stackScope int) (*ClearView, map[string]uint32) {
	t.Helper()
	im, labels := underflowProgram(t)
	db := learn(t, im, [][]byte{{5}, {6}, {7}, {8}})
	cv, err := New(Config{
		Image: im, Invariants: db, StackScope: stackScope,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cv, labels
}

func TestPipelineRepairsHeapUnderflowInFourPresentations(t *testing.T) {
	cv, labels := underflowClearView(t, 1)
	attack := []byte{4}

	// Presentation 1: detection, candidate selection, checks built.
	res := cv.Execute(attack)
	if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "HeapGuard" {
		t.Fatalf("presentation 1: %+v", res)
	}
	fc := cv.Case(labels["store"])
	if fc == nil {
		t.Fatalf("no case at store site; cases: %+v", cv.Cases())
	}
	if fc.State != StateChecking {
		t.Fatalf("state after detection = %v", fc.State)
	}
	if fc.Metrics.CandidateCount == 0 {
		t.Fatal("no candidate invariants selected")
	}

	// Presentations 2-3: invariant checking runs.
	for i := 0; i < 2; i++ {
		if res := cv.Execute(attack); res.Outcome != vm.OutcomeFailure {
			t.Fatalf("check run %d: %+v", i, res)
		}
	}
	if fc.State != StateEvaluating {
		t.Fatalf("state after check runs = %v", fc.State)
	}
	if fc.Metrics.RepairCount == 0 {
		t.Fatal("no repairs generated")
	}

	// Presentation 4: the deployed repair corrects the error — the run
	// survives the attack and continues.
	res = cv.Execute(attack)
	if res.Outcome != vm.OutcomeExit {
		t.Fatalf("presentation 4: %+v (repair %s)", res, fc.CurrentRepairID())
	}
	if fc.State != StatePatched {
		t.Fatalf("state = %v, want patched", fc.State)
	}
	if !cv.Protected() {
		t.Error("Protected() = false after adoption")
	}
}

func TestPatchedApplicationStillCorrectOnLegitimateInputs(t *testing.T) {
	cv, _ := underflowClearView(t, 1)
	attack := []byte{4}
	for i := 0; i < 4; i++ {
		cv.Execute(attack)
	}
	if !cv.Protected() {
		t.Fatal("not protected after 4 presentations")
	}
	// Autoimmune check: legitimate pages render identically with the
	// patch in place (the repair only acts when the invariant is
	// violated).
	legit := []byte{6}
	patched := cv.Execute(legit)
	if patched.Outcome != vm.OutcomeExit {
		t.Fatalf("legit input failed: %+v", patched)
	}
	im, _ := underflowProgram(t)
	bare, _ := vm.New(vm.Config{Image: im, Input: legit})
	want := bare.Run()
	if string(patched.Output) != string(want.Output) {
		t.Errorf("display differs: patched %x vs bare %x", patched.Output, want.Output)
	}
}

func TestNoFalsePositives(t *testing.T) {
	cv, _ := underflowClearView(t, 1)
	for _, b := range []byte{5, 6, 7, 8} {
		if res := cv.Execute([]byte{b}); res.Outcome != vm.OutcomeExit {
			t.Fatalf("legit input %d: %+v", b, res)
		}
	}
	if len(cv.Cases()) != 0 || cv.PatchesGenerated != 0 {
		t.Errorf("patch mechanism triggered by legitimate inputs: %d cases, %d patches",
			len(cv.Cases()), cv.PatchesGenerated)
	}
}

// typeConfusionProgram dispatches through a heap object's first word
// (vtable-style). Pages: [tag]. Legitimate tags 0..9 vary enough that
// learning infers no one-of on the raw input byte (K overflow), leaving
// the call-site one-of as the correcting invariant. Tag 0xEE overwrites
// the function pointer with a heap address (simulating the unchecked-type
// defects). The known handler dereferences the object's second word, which
// the exploit leaves pointing at unmapped memory, so the set-value repair
// crashes; skipping the call survives.
func typeConfusionProgram(t testing.TB) (*image.Image, map[string]uint32) {
	return buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Sys(isa.SysInAvail)
		a.CmpRI(isa.EAX, 0)
		a.Je("done")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.ESI, isa.EAX) // page buffer
		a.MovRI(isa.ECX, 1)
		a.Sys(isa.SysRead)
		// Build the object: 8 bytes [fnptr][dataptr].
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EDI, isa.EAX)
		a.MovLabel(isa.EBX, "handler")
		a.Store(asm.M(isa.EDI, 0), isa.EBX)
		a.Lea(isa.EBX, asm.M(isa.EDI, 0)) // valid data pointer: the object itself
		a.Store(asm.M(isa.EDI, 4), isa.EBX)
		a.LoadB(isa.EDX, asm.M(isa.ESI, 0))
		a.CmpRI(isa.EDX, 0xEE)
		a.Jne("dispatch")
		// The defect: attacker-controlled corruption of the object.
		a.Store(asm.M(isa.EDI, 0), isa.EDI) // fnptr -> heap (injected code)
		a.MovRI(isa.EBX, 0x0BAD0000)        // dataptr -> unmapped
		a.Store(asm.M(isa.EDI, 4), isa.EBX)
		a.Label("dispatch")
		a.Label("site")
		a.CallM(asm.M(isa.EDI, 0))
		a.Jmp("main")
		a.Label("done")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)

		a.Label("handler")
		a.Load(isa.ECX, asm.M(isa.EDI, 4)) // data pointer
		a.Load(isa.EBX, asm.M(isa.ECX, 0)) // crashes if dataptr unmapped
		a.MovRR(isa.EAX, isa.ESI)
		a.MovRI(isa.ECX, 1)
		a.Sys(isa.SysWrite)
		a.Ret()
	})
}

func TestPipelineTriesSecondRepairAfterCrash(t *testing.T) {
	im, labels := typeConfusionProgram(t)
	db := learn(t, im, [][]byte{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}})
	cv, err := New(Config{
		Image: im, Invariants: db, StackScope: 1,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	attack := []byte{0xEE}

	// Presentation 1: Memory Firewall blocks the injected-code call.
	res := cv.Execute(attack)
	if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "MemoryFirewall" {
		t.Fatalf("presentation 1: %+v", res)
	}
	fc := cv.Case(labels["site"])
	if fc == nil {
		t.Fatal("no case at call site")
	}

	// Presentations 2-3: checking runs.
	cv.Execute(attack)
	cv.Execute(attack)
	if fc.State != StateEvaluating {
		t.Fatalf("state = %v", fc.State)
	}

	// Presentation 4: first repair = set-value (call the known handler).
	// The corrupted object makes the handler crash; the evaluator must
	// demote it.
	first := fc.CurrentRepairID()
	res = cv.Execute(attack)
	if res.Outcome != vm.OutcomeCrash {
		t.Fatalf("presentation 4 should crash under set-value repair: %+v", res)
	}
	if fc.CurrentRepairID() == first {
		t.Fatal("crashing repair not demoted")
	}
	if fc.Metrics.Unsuccessful != 1 {
		t.Errorf("unsuccessful runs = %d", fc.Metrics.Unsuccessful)
	}

	// Presentation 5: skip-call survives.
	res = cv.Execute(attack)
	if res.Outcome != vm.OutcomeExit {
		t.Fatalf("presentation 5: %+v (repair %s)", res, fc.CurrentRepairID())
	}
	if fc.State != StatePatched {
		t.Fatalf("state = %v", fc.State)
	}

	// The adopted patch also protects immediately on replay.
	if res := cv.Execute(attack); res.Outcome != vm.OutcomeExit {
		t.Fatalf("replay under adopted patch: %+v", res)
	}
}

func TestAdoptedPatchDemotedIfItStopsWorking(t *testing.T) {
	// Once adopted, patches keep being evaluated; a later failure at the
	// same location demotes the repair and resumes the search.
	cv, labels := underflowClearView(t, 1)
	attack := []byte{4}
	for i := 0; i < 4; i++ {
		cv.Execute(attack)
	}
	fc := cv.Case(labels["store"])
	if fc == nil || fc.State != StatePatched {
		t.Fatal("setup: not patched")
	}
	cur := fc.Current
	cur.Successes = 0 // neutralize accumulated credit for the test
	fc.Evaluator.RecordFailure(cur.Repair.ID())
	fc.redeploy()
	if fc.State == StatePatched && fc.Current == cur {
		t.Error("failed repair kept deployed")
	}
}

func TestCaseWithNoInvariantsIsUnrepaired(t *testing.T) {
	// An empty invariant database: detection works, repair is impossible,
	// and the monitors keep blocking (availability via DoS, not repair).
	im, labels := underflowProgram(t)
	cv, err := New(Config{
		Image: im, Invariants: daikon.NewDB(),
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true, ShadowStack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	attack := []byte{4}
	for i := 0; i < 3; i++ {
		if res := cv.Execute(attack); res.Outcome != vm.OutcomeFailure {
			t.Fatalf("attack not blocked: %+v", res)
		}
	}
	fc := cv.Case(labels["store"])
	if fc == nil || fc.State != StateUnrepaired {
		t.Fatalf("case = %+v", fc)
	}
}

func TestSharedCFGDatabaseAcrossRuns(t *testing.T) {
	im, _ := underflowProgram(t)
	db := learn(t, im, [][]byte{{5}})
	shared := cfg.NewDB(im)
	cv, err := New(Config{
		Image: im, Invariants: db, CFG: shared,
		Monitors: replay.Monitors{MemoryFirewall: true, HeapGuard: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cv.Execute([]byte{5})
	if len(shared.Procs()) == 0 {
		t.Error("shared CFG database not populated")
	}
}
