package monitor

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/vm"
)

func buildImage(t *testing.T, build func(a *asm.Assembler)) (*image.Image, map[string]uint32) {
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

func TestFirewallBlocksCallToHeap(t *testing.T) {
	// Classic code injection: a function pointer redirected into heap data.
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 16)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.Label("site")
		a.CallR(isa.EBX) // target = heap pointer
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewMemoryFirewall()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("outcome = %v, want failure", res.Outcome)
	}
	f := res.Failure
	if f.Monitor != "MemoryFirewall" || f.PC != labels["site"] {
		t.Errorf("failure = %+v", f)
	}
	if f.Target < 0x2000_0000 {
		t.Errorf("target = %#x, want heap address", f.Target)
	}
}

func TestFirewallBlocksCorruptedReturn(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Call("f")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("f")
		// Smash the return address with a non-code value.
		a.MovRI(isa.ECX, 0x20000000)
		a.Store(asm.M(isa.ESP, 0), isa.ECX)
		a.Label("retsite")
		a.Ret()
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewMemoryFirewall()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure || res.Failure.PC != labels["retsite"] {
		t.Fatalf("res = %+v", res)
	}
}

func TestFirewallAllowsLegitimateIndirect(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovLabel(isa.EBX, "f")
		a.CallR(isa.EBX)
		a.Sys(isa.SysExit)
		a.Label("f")
		a.MovRI(isa.EAX, 5)
		a.Ret()
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewMemoryFirewall()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeExit || res.ExitCode != 5 {
		t.Fatalf("false positive: %+v", res)
	}
}

// heapOverflowProgram writes one word at offset off into an 8-byte block.
func heapOverflowProgram(t *testing.T, off int32) (*image.Image, map[string]uint32) {
	return buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 0x11223344)
		a.Label("store")
		a.Store(asm.M(isa.EBX, off), isa.ECX)
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
}

func TestHeapGuardDetectsOverflowPastEnd(t *testing.T) {
	im, labels := heapOverflowProgram(t, 8) // first word past the block
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Failure.Monitor != "HeapGuard" || res.Failure.PC != labels["store"] {
		t.Errorf("failure = %+v", res.Failure)
	}
}

func TestHeapGuardDetectsUnderflow(t *testing.T) {
	im, _ := heapOverflowProgram(t, -4) // front canary
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	if res := v.Run(); res.Outcome != vm.OutcomeFailure {
		t.Fatalf("underflow missed: %+v", res)
	}
}

func TestHeapGuardAllowsInBounds(t *testing.T) {
	im, _ := heapOverflowProgram(t, 4) // last in-bounds word
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	if res := v.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("false positive: %+v", res)
	}
}

func TestHeapGuardMissesSkippedBoundary(t *testing.T) {
	// A write that skips over the canary lands in unallocated arena and is
	// missed — the documented limitation (§2.3).
	im, _ := heapOverflowProgram(t, 64)
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	if res := v.Run(); res.Outcome == vm.OutcomeFailure {
		t.Fatalf("HeapGuard should miss a skip-over write; got failure")
	}
}

func TestHeapGuardLegitimateCanaryValueWrite(t *testing.T) {
	// The app writes the canary value in bounds, then writes over it again:
	// the allocation map lookup must suppress the false positive.
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, 0)
		a.SubRI(isa.ECX, 0x02020203) // ECX = 0xFDFDFDFD (the canary value)
		a.Store(asm.M(isa.EBX, 0), isa.ECX)
		a.MovRI(isa.ECX, 7)
		a.Store(asm.M(isa.EBX, 0), isa.ECX) // target now holds canary value
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	if res := v.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("false positive on legitimate canary-value write: %+v", res)
	}
}

func TestHeapGuardDisabled(t *testing.T) {
	im, _ := heapOverflowProgram(t, 8)
	hg := NewHeapGuard()
	hg.Enabled = false
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{hg}})
	if res := v.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("disabled HeapGuard still fired: %+v", res)
	}
}

func TestShadowStackSnapshot(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Call("outer")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("outer")
		a.Call("inner")
		a.Ret()
		a.Label("inner")
		a.MovRI(isa.EBX, 0x20000000)
		a.Label("site")
		a.CallR(isa.EBX) // firewall failure two frames deep
		a.Ret()
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewShadowStack(), NewMemoryFirewall()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("res = %+v", res)
	}
	st := res.Failure.Stack
	if len(st) != 2 {
		t.Fatalf("stack = %#v, want 2 frames", st)
	}
	// Innermost first: return site in outer, then return site in main.
	if st[0] != labels["outer"]+isa.InstSize || st[1] != labels["main"]+isa.InstSize {
		t.Errorf("stack = %#v", st)
	}
}

func TestShadowStackSurvivesNativeCorruption(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Call("f")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("f")
		a.MovRI(isa.ECX, 0x20000000)
		a.Store(asm.M(isa.ESP, 0), isa.ECX) // smash native return address
		a.Ret()
	})
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewShadowStack(), NewMemoryFirewall()}})
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Failure.Stack) != 1 {
		t.Errorf("shadow stack lost frames: %#v", res.Failure.Stack)
	}
}

func TestShadowStackDepthBalanced(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Call("f")
		a.Call("f")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("f")
		a.Ret()
	})
	ss := NewShadowStack()
	v, _ := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{ss}})
	if res := v.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatal(res.Outcome)
	}
	if ss.Depth() != 0 {
		t.Errorf("depth = %d after balanced calls", ss.Depth())
	}
}

// TestShadowStacksPerMachine: two machines on one image share the shadow
// stack's hooks, and each keeps its own stack. The program exits from
// inside f (no input) or g (input), one or two frames deep.
func TestShadowStacksPerMachine(t *testing.T) {
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Label("callf")
		a.Call("f")
		a.Halt()
		a.Label("f")
		a.Sys(isa.SysInAvail)
		a.CmpRI(isa.EAX, 0)
		a.Je("leaf")
		a.Label("callg")
		a.Call("g")
		a.Label("leaf")
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
		a.Label("g")
		a.Jmp("leaf")
	})
	shallow, deep := NewShadowStack(), NewShadowStack()
	for _, m := range []struct {
		s     *ShadowStack
		input []byte
	}{{shallow, nil}, {deep, []byte("x")}} {
		v, err := vm.New(vm.Config{Image: im, Input: m.input, Plugins: []vm.Plugin{m.s}})
		if err != nil {
			t.Fatal(err)
		}
		if res := v.Run(); res.Outcome != vm.OutcomeExit {
			t.Fatalf("input %q: %+v", m.input, res)
		}
	}
	ret := func(label string) uint32 { return labels[label] + isa.InstSize }
	if got, want := shallow.StackSnapshot(), []uint32{ret("callf")}; !reflect.DeepEqual(got, want) {
		t.Errorf("first machine's stack %#x, want %#x", got, want)
	}
	if got, want := deep.StackSnapshot(), []uint32{ret("callg"), ret("callf")}; !reflect.DeepEqual(got, want) {
		t.Errorf("second machine's stack %#x, want %#x", got, want)
	}
}
