package vm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
)

// buildImage assembles a program at base 0x1000 and returns the image plus
// the label map.
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

func run(t testing.TB, im *image.Image, cfg Config) RunResult {
	t.Helper()
	cfg.Image = im
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v.Run()
}

func TestArithmeticAndExit(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 6)
		a.MovRI(isa.ECX, 7)
		a.MulRR(isa.EAX, isa.ECX)
		a.Sys(isa.SysExit)
	})
	res := run(t, im, Config{})
	if res.Outcome != OutcomeExit || res.ExitCode != 42 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLoopAndFlags(t *testing.T) {
	// Sum 1..10 via a conditional backward branch.
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 0)
		a.MovRI(isa.ECX, 1)
		a.Label("loop")
		a.AddRR(isa.EAX, isa.ECX)
		a.AddRI(isa.ECX, 1)
		a.CmpRI(isa.ECX, 10)
		a.Jle("loop")
		a.Sys(isa.SysExit)
	})
	res := run(t, im, Config{})
	if res.ExitCode != 55 {
		t.Fatalf("sum = %d, want 55", res.ExitCode)
	}
}

func TestSignedVsUnsignedBranches(t *testing.T) {
	// -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, -1)
		a.CmpRI(isa.EAX, 1)
		a.Jl("signedLess")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("signedLess")
		a.CmpRI(isa.EAX, 1)
		a.Ja("unsignedGreater")
		a.MovRI(isa.EAX, 1)
		a.Sys(isa.SysExit)
		a.Label("unsignedGreater")
		a.MovRI(isa.EAX, 99)
		a.Sys(isa.SysExit)
	})
	res := run(t, im, Config{})
	if res.ExitCode != 99 {
		t.Fatalf("exit = %d, want 99", res.ExitCode)
	}
}

func TestCallRetAndStack(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 5)
		a.Call("double")
		a.Call("double")
		a.Sys(isa.SysExit)
		a.Label("double")
		a.AddRR(isa.EAX, isa.EAX)
		a.Ret()
	})
	res := run(t, im, Config{})
	if res.ExitCode != 20 {
		t.Fatalf("exit = %d, want 20", res.ExitCode)
	}
}

func TestPushPop(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 11)
		a.Push(isa.EAX)
		a.PushI(22)
		a.Pop(isa.ECX) // 22
		a.Pop(isa.EDX) // 11
		a.MovRR(isa.EAX, isa.ECX)
		a.AddRR(isa.EAX, isa.EDX)
		a.Sys(isa.SysExit)
	})
	if res := run(t, im, Config{}); res.ExitCode != 33 {
		t.Fatalf("exit = %d, want 33", res.ExitCode)
	}
}

func TestIndirectCallThroughMemory(t *testing.T) {
	// A static dispatch table in the code region, CALLM through it.
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovLabel(isa.EBX, "table")
		a.CallM(asm.M(isa.EBX, 4)) // second entry
		a.Sys(isa.SysExit)
		a.Label("f1")
		a.MovRI(isa.EAX, 1)
		a.Ret()
		a.Label("f2")
		a.MovRI(isa.EAX, 2)
		a.Ret()
		a.Label("table")
		a.WordLabel("f1")
		a.WordLabel("f2")
	})
	if res := run(t, im, Config{}); res.ExitCode != 2 {
		t.Fatalf("exit = %d, want 2", res.ExitCode)
	}
}

func TestHeapSyscalls(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX) // ptr
		a.MovRI(isa.ECX, 1234)
		a.Store(asm.M(isa.EBX, 0), isa.ECX)
		a.Load(isa.EAX, asm.M(isa.EBX, 0))
		a.Sys(isa.SysExit)
	})
	if res := run(t, im, Config{}); res.ExitCode != 1234 {
		t.Fatalf("exit = %d, want 1234", res.ExitCode)
	}
}

func TestInputOutputSyscalls(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 5)
		a.Sys(isa.SysRead) // read up to 5 bytes
		a.MovRR(isa.EDX, isa.EAX)
		a.MovRR(isa.EAX, isa.EBX)
		a.MovRR(isa.ECX, isa.EDX)
		a.Sys(isa.SysWrite) // echo them
		a.Sys(isa.SysInAvail)
		a.Sys(isa.SysExit) // exit code = remaining input
	})
	res := run(t, im, Config{Input: []byte("hello!!")})
	if !bytes.Equal(res.Output, []byte("hello")) {
		t.Errorf("output = %q", res.Output)
	}
	if res.ExitCode != 2 {
		t.Errorf("remaining = %d, want 2", res.ExitCode)
	}
}

func TestCrashOnWildMemory(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EBX, 0x41414141)
		a.Load(isa.EAX, asm.M(isa.EBX, 0))
		a.Sys(isa.SysExit)
	})
	res := run(t, im, Config{})
	if res.Outcome != OutcomeCrash || res.Crash == nil {
		t.Fatalf("res = %+v", res)
	}
}

func TestCrashOnHalt(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) { a.Halt() })
	if res := run(t, im, Config{}); res.Outcome != OutcomeCrash {
		t.Fatalf("halt outcome = %v", res.Outcome)
	}
}

func TestCrashOnStepLimit(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("spin")
		a.Jmp("spin")
	})
	res := run(t, im, Config{MaxSteps: 1000})
	if res.Outcome != OutcomeCrash || res.Steps < 1000 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCrashOnJumpOutsideCode(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 0x20000000)
		a.JmpR(isa.EAX)
	})
	if res := run(t, im, Config{}); res.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

// recordingPlugin records decoded blocks and counts hook executions.
type recordingPlugin struct {
	blocks []uint32
	execs  int
}

func (p *recordingPlugin) Name() string { return "recorder" }
func (p *recordingPlugin) Instrument(b *Block) {
	p.blocks = append(p.blocks, b.Start)
	for i := range b.Insts {
		b.AddHook(i, PrioTrace, func(ctx *Ctx) error {
			p.execs++
			return nil
		})
	}
}

func TestPluginInstrumentation(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 1)
		a.Sys(isa.SysExit)
	})
	p := &recordingPlugin{}
	res := run(t, im, Config{Plugins: []Plugin{p}})
	if res.Outcome != OutcomeExit {
		t.Fatal(res.Outcome)
	}
	if len(p.blocks) != 1 || p.blocks[0] != 0x1000 {
		t.Errorf("blocks = %v", p.blocks)
	}
	if p.execs != 2 || res.HookRuns != 2 {
		t.Errorf("hook execs = %d / %d", p.execs, res.HookRuns)
	}
}

func TestBlockCaching(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.ECX, 100)
		a.Label("loop")
		a.SubRI(isa.ECX, 1)
		a.CmpRI(isa.ECX, 0)
		a.Jne("loop")
		a.Sys(isa.SysExit)
	})
	p := &recordingPlugin{}
	res := run(t, im, Config{Plugins: []Plugin{p}})
	if res.Outcome != OutcomeExit {
		t.Fatal(res.Outcome)
	}
	// The loop body must be decoded once, not per iteration.
	if len(p.blocks) != res.Blocks || len(p.blocks) > 3 {
		t.Errorf("blocks decoded = %v (res.Blocks=%d)", p.blocks, res.Blocks)
	}
}

func TestPatchMutatesState(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, -5)
		a.Label("use")
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRR(isa.EAX, isa.EBX)
		a.Sys(isa.SysExit)
	})
	// A lower-bound style enforcement: at "use", if EAX < 0 then EAX = 0.
	patch := &Patch{
		ID: "clamp", Addr: labels["use"], Prio: PrioRepair,
		Hook: func(ctx *Ctx) error {
			if int32(ctx.Reg(isa.EAX)) < 0 {
				ctx.SetReg(isa.EAX, 0)
			}
			return nil
		},
	}
	res := run(t, im, Config{Patches: []*Patch{patch}})
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d, want clamped 0", int32(res.ExitCode))
	}
}

func TestPatchSkipInstruction(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 7)
		a.Label("clobber")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	patch := &Patch{
		ID: "skip", Addr: labels["clobber"], Prio: PrioRepair,
		Hook: func(ctx *Ctx) error { ctx.Skip(); return nil },
	}
	if res := run(t, im, Config{Patches: []*Patch{patch}}); res.ExitCode != 7 {
		t.Fatalf("exit = %d, want 7", res.ExitCode)
	}
}

func TestPatchOverrideIndirectTarget(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 0x20000000) // bogus target
		a.Label("site")
		a.CallR(isa.EAX)
		a.Sys(isa.SysExit)
		a.Label("good")
		a.MovRI(isa.EAX, 77)
		a.Ret()
	})
	patch := &Patch{
		ID: "redirect", Addr: labels["site"], Prio: PrioRepair,
		Hook: func(ctx *Ctx) error {
			ctx.OverrideTarget(labels["good"])
			return nil
		},
	}
	if res := run(t, im, Config{Patches: []*Patch{patch}}); res.ExitCode != 77 {
		t.Fatalf("res exit = %d, want 77", res.ExitCode)
	}
}

func TestPatchJumpDisposition(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 0)
		a.Label("here")
		a.MovRI(isa.EAX, 1)
		a.Sys(isa.SysExit)
		a.Label("elsewhere")
		a.MovRI(isa.EAX, 42)
		a.Sys(isa.SysExit)
	})
	patch := &Patch{
		ID: "jump", Addr: labels["here"], Prio: PrioRepair,
		Hook: func(ctx *Ctx) error { ctx.Jump(labels["elsewhere"]); return nil },
	}
	if res := run(t, im, Config{Patches: []*Patch{patch}}); res.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42", res.ExitCode)
	}
}

func TestApplyRemovePatchMidRun(t *testing.T) {
	// A patch applied from a hook takes effect on the *next* execution of
	// the patched code (cache ejection), without restarting the machine.
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.ESI, 0) // loop counter
		a.MovRI(isa.EDI, 0) // accumulator
		a.Label("loop")
		a.Label("inc")
		a.AddRI(isa.EDI, 1)
		a.AddRI(isa.ESI, 1)
		a.CmpRI(isa.ESI, 4)
		a.Jne("loop")
		a.MovRR(isa.EAX, isa.EDI)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	// Trigger plugin: after the 2nd iteration, install a skip patch on inc.
	iter := 0
	trigger := &Patch{
		ID: "trigger", Addr: labels["loop"], Prio: PrioMonitor,
		Hook: func(ctx *Ctx) error {
			iter++
			if iter == 3 {
				return ctx.VM.ApplyPatch(&Patch{
					ID: "skipinc", Addr: labels["inc"], Prio: PrioRepair,
					Hook: func(c *Ctx) error { c.Skip(); return nil },
				})
			}
			return nil
		},
	}
	if err := v.ApplyPatch(trigger); err != nil {
		t.Fatal(err)
	}
	res := v.Run()
	// The patch is installed during iteration 3, whose block is already
	// executing; it takes effect when the block is next fetched. So
	// iterations 1-3 increment EDI and iteration 4 is skipped.
	if res.ExitCode != 3 {
		t.Fatalf("exit = %d, want 3", res.ExitCode)
	}
}

func TestRemovePatch(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 7)
		a.Sys(isa.SysExit)
	})
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	p := &Patch{ID: "p", Addr: labels["main"], Prio: PrioRepair,
		Hook: func(ctx *Ctx) error { ctx.SetReg(isa.EAX, 1); return nil }}
	if err := v.ApplyPatch(p); err != nil {
		t.Fatal(err)
	}
	if got := v.PatchIDs(); len(got) != 1 || got[0] != "p" {
		t.Errorf("PatchIDs = %v", got)
	}
	v.RemovePatch("p")
	v.RemovePatch("p") // idempotent
	if got := v.PatchIDs(); len(got) != 0 {
		t.Errorf("PatchIDs after remove = %v", got)
	}
	if res := v.Run(); res.ExitCode != 7 {
		t.Fatalf("patch still active: exit = %d", res.ExitCode)
	}
}

func TestDuplicatePatchIDRejected(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) { a.Sys(isa.SysExit) })
	v, _ := New(Config{Image: im})
	p := &Patch{ID: "x", Addr: 0x1000, Hook: func(ctx *Ctx) error { return nil }}
	if err := v.ApplyPatch(p); err != nil {
		t.Fatal(err)
	}
	if err := v.ApplyPatch(&Patch{ID: "x", Addr: 0x1000, Hook: p.Hook}); err == nil {
		t.Error("duplicate patch ID accepted")
	}
}

func TestHookFailureStopsRun(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("bad")
		a.MovRI(isa.EAX, 1)
		a.Sys(isa.SysExit)
	})
	p := &Patch{ID: "detect", Addr: labels["bad"], Prio: PrioMonitor,
		Hook: func(ctx *Ctx) error {
			return &Failure{PC: ctx.PC, Monitor: "test", Kind: "synthetic"}
		}}
	res := run(t, im, Config{Patches: []*Patch{p}})
	if res.Outcome != OutcomeFailure || res.Failure.PC != labels["bad"] {
		t.Fatalf("res = %+v", res)
	}
}

func TestHookPriorityOrdering(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Sys(isa.SysExit)
	})
	var order []string
	mk := func(name string, prio int) *Patch {
		return &Patch{ID: name, Addr: labels["main"], Prio: prio,
			Hook: func(ctx *Ctx) error { order = append(order, name); return nil }}
	}
	// Applied in reverse priority order; must run in ascending order.
	res := run(t, im, Config{Patches: []*Patch{
		mk("trace", PrioTrace), mk("monitor", PrioMonitor),
		mk("check", PrioCheck), mk("repair", PrioRepair),
	}})
	if res.Outcome != OutcomeExit {
		t.Fatal(res.Outcome)
	}
	want := []string{"repair", "check", "monitor", "trace"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEvalAndSetSlot(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 500)
		a.Store(asm.M(isa.EBX, 0), isa.ECX)
		a.Label("loadsite")
		a.Load(isa.EAX, asm.M(isa.EBX, 0))
		a.Sys(isa.SysExit)
	})
	var observed uint32
	check := &Patch{ID: "c", Addr: labels["loadsite"], Prio: PrioCheck,
		Hook: func(ctx *Ctx) error {
			// LOAD slots: regB(base), addr, memval.
			v, err := ctx.EvalSlot(2)
			if err != nil {
				return err
			}
			observed = v
			// Enforce a different value through the memory slot.
			return ctx.SetSlot(2, 999)
		}}
	res := run(t, im, Config{Patches: []*Patch{check}})
	if observed != 500 {
		t.Errorf("observed = %d, want 500", observed)
	}
	if res.ExitCode != 999 {
		t.Errorf("exit = %d, want enforced 999", res.ExitCode)
	}
}

func TestShadowStackProviderAttachedToFailure(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("bad")
		a.Sys(isa.SysExit)
	})
	v, _ := New(Config{Image: im})
	v.SetStackProvider(stubStack{0xAAAA, 0xBBBB})
	_ = v.ApplyPatch(&Patch{ID: "f", Addr: labels["bad"], Prio: PrioMonitor,
		Hook: func(ctx *Ctx) error { return &Failure{PC: ctx.PC, Monitor: "m", Kind: "k"} }})
	res := v.Run()
	if res.Failure == nil || len(res.Failure.Stack) != 2 || res.Failure.Stack[0] != 0xAAAA {
		t.Fatalf("failure stack = %+v", res.Failure)
	}
}

type stubStack []uint32

func (s stubStack) StackSnapshot() []uint32 { return append([]uint32(nil), s...) }

func TestHeapGuardStyleCanaryVisible(t *testing.T) {
	// An out-of-bounds store one word past a block lands exactly on the
	// rear canary; the VM itself does not fault (mapped arena), mirroring
	// real heap corruption.
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 0x31337)
		a.Store(asm.M(isa.EBX, 8), isa.ECX) // one past the end
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	if res := run(t, im, Config{}); res.Outcome != OutcomeExit {
		t.Fatalf("oob heap store should not fault without Heap Guard: %+v", res)
	}
}
