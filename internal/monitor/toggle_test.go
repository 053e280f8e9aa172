package monitor

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestHeapGuardToggledMidRun exercises the §2.3 capability: Heap Guard can
// be enabled and disabled as the application executes without otherwise
// perturbing the execution. The program performs two out-of-bounds writes;
// a patch hook enables the guard between them, so only the second is
// detected.
func TestHeapGuardToggledMidRun(t *testing.T) {
	// Two blocks: the pre-toggle write destroys block 1's canary
	// unnoticed (and unrecoverably — a disabled guard cannot undo
	// corruption); the post-toggle write hits block 2's intact canary.
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX) // block 1
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.ESI, isa.EAX) // block 2
		a.MovRI(isa.ECX, 0x11)
		a.Label("oob1")
		a.Store(asm.M(isa.EBX, 8), isa.ECX) // block 1 rear canary: undetected
		a.Label("mid")
		a.MovRI(isa.ECX, 0x22)
		a.Label("oob2")
		a.Store(asm.M(isa.ESI, 8), isa.ECX) // block 2 rear canary: detected
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	hg := NewHeapGuard()
	hg.Enabled = false
	enable := &vm.Patch{
		ID: "enable-hg", Addr: labels["mid"], Prio: vm.PrioRepair,
		Hook: func(ctx *vm.Ctx) error {
			hg.Enabled = true
			return nil
		},
	}
	machine, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{hg}, Patches: []*vm.Patch{enable}})
	if err != nil {
		t.Fatal(err)
	}
	res := machine.Run()
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("res = %+v", res)
	}
	if res.Failure.PC != labels["oob2"] {
		t.Errorf("failure at %#x, want the post-toggle write %#x (first write must pass undetected)",
			res.Failure.PC, labels["oob2"])
	}
}

// TestHeapGuardDisableMidRun: the opposite toggle — disabling the guard
// before the violation suppresses detection (the §3.2 policy option of
// turning monitors off after a quiet period).
func TestHeapGuardDisableMidRun(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.Label("mid")
		a.MovRI(isa.ECX, 0x33)
		a.Label("oob")
		a.Store(asm.M(isa.EBX, 8), isa.ECX)
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	hg := NewHeapGuard()
	disable := &vm.Patch{
		ID: "disable-hg", Addr: labels["mid"], Prio: vm.PrioRepair,
		Hook: func(ctx *vm.Ctx) error {
			hg.Enabled = false
			return nil
		},
	}
	machine, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{hg}, Patches: []*vm.Patch{disable}})
	if err != nil {
		t.Fatal(err)
	}
	if res := machine.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("disabled guard still fired: %+v", res)
	}
}

// TestHeapGuardEnabledPerMachine: machines of one image under one detector
// set share their instrumented blocks, but Enabled belongs to each
// machine's own guard: disabling one leaves the other detecting.
func TestHeapGuardEnabledPerMachine(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 0x33)
		a.Label("oob")
		a.Store(asm.M(isa.EBX, 8), isa.ECX)
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	off, on := NewHeapGuard(), NewHeapGuard()
	off.Enabled = false
	quiet, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{off}})
	if err != nil {
		t.Fatal(err)
	}
	if res := quiet.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("disabled guard fired: %+v", res)
	}
	guarded, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{on}})
	if err != nil {
		t.Fatal(err)
	}
	res := guarded.Run()
	if res.Outcome != vm.OutcomeFailure || res.Failure.PC != labels["oob"] {
		t.Fatalf("enabled guard on the shared table: %+v, want a failure at %#x", res, labels["oob"])
	}
	if n := guarded.BlocksBuilt(); n != 0 {
		t.Errorf("the second machine built %d blocks; the table was not shared", n)
	}
}
