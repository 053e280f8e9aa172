package vm_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/monitor"
	"repro/internal/vm"
)

// rewriteProgram exercises every detector's instrumentation: a heap store
// (Heap Guard), a call and a return (the shadow stack, and Memory Firewall
// on the return), and a division (Fault Guard). With input available it
// first stores the encoding of `MOVRI eax, 42` over the not yet executed
// `MOVRI eax, 7` at "slot", so the run exits 42 instead of 7.
func rewriteProgram(t *testing.T) (*image.Image, map[string]uint32) {
	t.Helper()
	enc := isa.Inst{Op: isa.MOVRI, A: isa.EAX, X: isa.NoReg, Imm: 42}.Encode()
	a := asm.New(0x1000)
	a.Label("main")
	a.Sys(isa.SysInAvail)
	a.CmpRI(isa.EAX, 0)
	a.Je("work")
	a.MovLabel(isa.ECX, "slot")
	a.MovRI(isa.EAX, int32(binary.LittleEndian.Uint32(enc[:4])))
	a.Store(asm.M(isa.ECX, 0), isa.EAX)
	a.MovRI(isa.EAX, int32(binary.LittleEndian.Uint32(enc[4:])))
	a.Store(asm.M(isa.ECX, 4), isa.EAX)
	a.Label("work")
	a.MovRI(isa.EAX, 8)
	a.Sys(isa.SysAlloc)
	a.MovRR(isa.EBX, isa.EAX)
	a.Store(asm.M(isa.EBX, 0), isa.EAX)
	a.Label("call")
	a.Call("f")
	a.Jmp("slot")
	a.Label("f")
	a.MovRI(isa.EDX, 12)
	a.MovRI(isa.ESI, 4)
	a.DivRR(isa.EDX, isa.ESI)
	a.Ret()
	a.Label("slot")
	a.MovRI(isa.EAX, 7)
	a.Sys(isa.SysExit)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return &image.Image{Base: 0x1000, Entry: labels["main"], Code: code}, labels
}

// detectors returns fresh instances of all five failure detectors.
func detectors() []vm.Plugin {
	return []vm.Plugin{monitor.NewShadowStack(), monitor.NewMemoryFirewall(), monitor.NewHeapGuard(),
		monitor.NewFaultGuard(), monitor.NewHangGuard()}
}

func runOn(t *testing.T, cfg vm.Config) (*vm.VM, vm.RunResult) {
	t.Helper()
	v, err := vm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, v.Run()
}

// TestFreshImageConcurrentFirstUse: machines on one fresh image build and
// share its decode table and, under all five detectors, its instrumented
// code table from several goroutines at once, while half of them rewrite
// code and so decode that block from guest memory. Every run equals the
// same run made alone on an image of its own (run with -race).
func TestFreshImageConcurrentFirstUse(t *testing.T) {
	inputs := [][]byte{nil, []byte("x")}
	for _, monitored := range []bool{false, true} {
		plugins := func() []vm.Plugin {
			if monitored {
				return detectors()
			}
			return nil
		}
		var want [2]vm.RunResult
		for i, input := range inputs {
			im, _ := rewriteProgram(t)
			_, want[i] = runOn(t, vm.Config{Image: im, Input: input, Plugins: plugins()})
			if want[i].Outcome != vm.OutcomeExit || want[i].ExitCode != [2]uint32{7, 42}[i] {
				t.Fatalf("monitored %v, input %q: %+v", monitored, input, want[i])
			}
		}
		for round := 0; round < 4; round++ {
			im, _ := rewriteProgram(t)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < cap(errs); g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					v, err := vm.New(vm.Config{Image: im, Input: inputs[g%2], Plugins: plugins()})
					if err != nil {
						errs <- err
						return
					}
					if res := v.Run(); !reflect.DeepEqual(res, want[g%2]) {
						errs <- fmt.Errorf("monitored %v, goroutine %d: %+v, want %+v", monitored, g, res, want[g%2])
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}

// TestSecondMachineBuildsNoBlocks: a machine of an image and detector set
// whose code table is warm builds no block, and runs exactly as the
// machine that built them. A plugin that does not share its
// instrumentation gets a private table, which each machine builds again.
func TestSecondMachineBuildsNoBlocks(t *testing.T) {
	im, _ := rewriteProgram(t)
	first, want := runOn(t, vm.Config{Image: im, Plugins: detectors()})
	if first.BlocksBuilt() == 0 {
		t.Fatal("the first machine built no blocks")
	}
	second, got := runOn(t, vm.Config{Image: im, Plugins: detectors()})
	if n := second.BlocksBuilt(); n != 0 {
		t.Errorf("the second machine built %d blocks, want 0", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second machine: %+v, want %+v", got, want)
	}
	for i := 0; i < 2; i++ {
		private, _ := runOn(t, vm.Config{Image: im, Plugins: append(detectors(), privatePlugin{})})
		if n := private.BlocksBuilt(); n != first.BlocksBuilt() {
			t.Errorf("private machine %d built %d blocks, want %d", i, n, first.BlocksBuilt())
		}
	}
}

// privatePlugin attaches nothing and does not implement vm.BlockSharer.
type privatePlugin struct{}

func (privatePlugin) Name() string           { return "private" }
func (privatePlugin) Instrument(b *vm.Block) {}

// TestPatchStaysOnItsMachine: of two machines on one image and detector
// set, the patched one runs its patch hook and the other runs exactly the
// hooks of an unpatched machine, whichever machine enters the patched
// block first.
func TestPatchStaysOnItsMachine(t *testing.T) {
	for _, patchedFirst := range []bool{true, false} {
		ref, _ := rewriteProgram(t)
		_, unpatched := runOn(t, vm.Config{Image: ref, Plugins: detectors()})

		im, labels := rewriteProgram(t)
		probes := 0
		probe := &vm.Patch{ID: "probe", Addr: labels["call"], Prio: vm.PrioCheck,
			Hook: func(*vm.Ctx) error { probes++; return nil }}
		a, err := vm.New(vm.Config{Image: im, Plugins: detectors(), Patches: []*vm.Patch{probe}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := vm.New(vm.Config{Image: im, Plugins: detectors()})
		if err != nil {
			t.Fatal(err)
		}
		var resA, resB vm.RunResult
		if patchedFirst {
			resA, resB = a.Run(), b.Run()
		} else {
			resB, resA = b.Run(), a.Run()
		}
		if probes != 1 || resA.HookRuns != unpatched.HookRuns+1 {
			t.Errorf("patched first %v: probe ran %d times and the patched machine %d hooks, want 1 and %d",
				patchedFirst, probes, resA.HookRuns, unpatched.HookRuns+1)
		}
		if !reflect.DeepEqual(resB, unpatched) {
			t.Errorf("patched first %v: unpatched machine %+v, want %+v", patchedFirst, resB, unpatched)
		}
	}
}
