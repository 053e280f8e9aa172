package monitor

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestHeapGuardAllocationEdges is the table-driven boundary sweep of the
// out-of-bounds write detector: writes at the very first and very last
// byte of a block are legitimate; one byte past either edge lands on a
// canary word and must be detected. Zero-length allocations (rounded to
// the 4-byte minimum) and freed-then-reused blocks get the same treatment
// — the recycled block's canaries are re-planted, so its edges are
// exactly as sharp as a fresh block's.
func TestHeapGuardAllocationEdges(t *testing.T) {
	cases := []struct {
		name     string
		size     int32 // allocation size requested
		off      int32 // byte-store offset relative to the block start
		reuse    bool  // free the block and allocate again before storing
		wantFail bool
	}{
		{name: "first byte", size: 8, off: 0},
		{name: "last byte", size: 8, off: 7},
		{name: "one past the end", size: 8, off: 8, wantFail: true},
		{name: "one before the start", size: 8, off: -1, wantFail: true},
		{name: "last byte of the rear canary word", size: 8, off: 11, wantFail: true},
		{name: "zero-length alloc, minimum slot", size: 0, off: 3},
		{name: "zero-length alloc, past the slot", size: 0, off: 4, wantFail: true},
		{name: "reused block, last byte", size: 8, off: 7, reuse: true},
		{name: "reused block, one past the end", size: 8, off: 8, reuse: true, wantFail: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			im, labels := buildImage(t, func(a *asm.Assembler) {
				a.Label("main")
				a.MovRI(isa.EAX, tc.size)
				a.Sys(isa.SysAlloc)
				a.MovRR(isa.EBX, isa.EAX)
				if tc.reuse {
					a.Sys(isa.SysFree) // EAX still holds the block
					a.MovRI(isa.EAX, tc.size)
					a.Sys(isa.SysAlloc) // LIFO freelist: same address back
					a.MovRR(isa.EBX, isa.EAX)
				}
				a.MovRI(isa.ECX, 0x31)
				a.Label("store")
				a.StoreB(asm.M(isa.EBX, tc.off), isa.ECX)
				a.MovRI(isa.EAX, 0)
				a.Sys(isa.SysExit)
			})
			v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
			if err != nil {
				t.Fatal(err)
			}
			res := v.Run()
			if tc.wantFail {
				if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "HeapGuard" {
					t.Fatalf("edge write not detected: %+v", res)
				}
				if res.Failure.PC != labels["store"] {
					t.Errorf("failure at %#x, want the store site %#x", res.Failure.PC, labels["store"])
				}
			} else if res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
				t.Fatalf("legitimate edge write flagged: %+v", res)
			}
		})
	}
}

// TestHeapGuardInBoundsCanaryValue pins the allocation-map disambiguation:
// an application may legitimately write the canary VALUE inside its own
// block; a second write over it must not be misread as a boundary hit.
func TestHeapGuardInBoundsCanaryValue(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 8)
		a.Sys(isa.SysAlloc)
		a.MovRR(isa.EBX, isa.EAX)
		a.MovRI(isa.ECX, int32(-0x02020203)) // 0xFDFDFDFD, the canary value
		a.Store(asm.M(isa.EBX, 0), isa.ECX)
		a.Store(asm.M(isa.EBX, 0), isa.ECX) // second write sees the canary value in-bounds
		a.MovRI(isa.EAX, 0)
		a.Sys(isa.SysExit)
	})
	v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewHeapGuard()}})
	if err != nil {
		t.Fatal(err)
	}
	if res := v.Run(); res.Outcome != vm.OutcomeExit || res.ExitCode != 0 {
		t.Fatalf("in-bounds canary-value write flagged: %+v", res)
	}
}

// TestFirewallCodeRangeBoundaries sweeps indirect transfers landing
// exactly on the code-range boundaries: the first code byte and the last
// instruction are legal targets; one instruction before the base and the
// first byte past the end are not.
func TestFirewallCodeRangeBoundaries(t *testing.T) {
	build := func(target func(labels map[string]uint32) uint32) (*vm.VM, map[string]uint32) {
		im, labels := buildImage(t, func(a *asm.Assembler) {
			// The first code byte (0x1000) is a clean exit pad, so landing
			// there is observably legal.
			a.MovRI(isa.EAX, 0)
			a.Sys(isa.SysExit)
			a.Label("main") // entry; EBX is preset before Run
			a.Label("jump")
			a.JmpR(isa.EBX)
			a.Label("last")
			a.Sys(isa.SysExit)
			a.Label("end") // one past the last instruction
		})
		v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewMemoryFirewall()}})
		if err != nil {
			t.Fatal(err)
		}
		v.CPU.Regs[isa.EBX] = target(labels)
		return v, labels
	}
	cases := []struct {
		name     string
		target   func(labels map[string]uint32) uint32
		wantFail bool
	}{
		{name: "last instruction", target: func(l map[string]uint32) uint32 { return l["last"] }},
		{name: "one past the end", target: func(l map[string]uint32) uint32 { return l["end"] }, wantFail: true},
		{name: "one instruction before the base", target: func(map[string]uint32) uint32 { return 0x1000 - isa.InstSize }, wantFail: true},
		{name: "first code byte", target: func(map[string]uint32) uint32 { return 0x1000 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			v, labels := build(tc.target)
			res := v.Run()
			if tc.wantFail {
				if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "MemoryFirewall" {
					t.Fatalf("boundary transfer not detected: %+v", res)
				}
				if res.Failure.PC != labels["jump"] {
					t.Errorf("failure at %#x, want the jump site %#x", res.Failure.PC, labels["jump"])
				}
				if res.Failure.Target != tc.target(labels) {
					t.Errorf("failure target %#x, want %#x", res.Failure.Target, tc.target(labels))
				}
			} else if res.Outcome == vm.OutcomeFailure {
				t.Fatalf("legal boundary transfer flagged: %+v", res.Failure)
			}
		})
	}
}

// TestFaultGuardBoundaries sweeps the arithmetic-fault detector's edges:
// divisors of ±1 and the most-negative-dividend wrap are legal, only the
// exact zero divisor fires; aligned word loads are legal at every word of
// a block, each of the three misaligned phases fires.
func TestFaultGuardBoundaries(t *testing.T) {
	for _, tc := range []struct {
		div      int32
		wantFail bool
	}{{1, false}, {-1, false}, {0, true}} {
		t.Run(fmt.Sprintf("div by %d", tc.div), func(t *testing.T) {
			im, labels := buildImage(t, func(a *asm.Assembler) {
				a.Label("main")
				a.MovRI(isa.EAX, int32(-0x80000000)) // most negative dividend
				a.MovRI(isa.ECX, tc.div)
				a.Label("div")
				a.DivRR(isa.EAX, isa.ECX)
				a.MovRI(isa.EAX, 0)
				a.Sys(isa.SysExit)
			})
			v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewFaultGuard()}})
			if err != nil {
				t.Fatal(err)
			}
			res := v.Run()
			if tc.wantFail {
				if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "FaultGuard" ||
					res.Failure.PC != labels["div"] {
					t.Fatalf("zero divisor not detected: %+v", res)
				}
			} else if res.Outcome != vm.OutcomeExit {
				t.Fatalf("legal division flagged: %+v", res)
			}
		})
	}
	for off := int32(0); off < 8; off++ {
		off := off
		t.Run(fmt.Sprintf("load at +%d", off), func(t *testing.T) {
			im, labels := buildImage(t, func(a *asm.Assembler) {
				a.Label("main")
				a.MovRI(isa.EAX, 16)
				a.Sys(isa.SysAlloc)
				a.MovRR(isa.EBX, isa.EAX)
				a.Label("load")
				a.LoadA(isa.ECX, asm.M(isa.EBX, off))
				a.MovRI(isa.EAX, 0)
				a.Sys(isa.SysExit)
			})
			v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{NewFaultGuard()}})
			if err != nil {
				t.Fatal(err)
			}
			res := v.Run()
			if off%4 == 0 {
				if res.Outcome != vm.OutcomeExit {
					t.Fatalf("aligned load flagged: %+v", res)
				}
			} else if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "FaultGuard" ||
				res.Failure.PC != labels["load"] {
				t.Fatalf("misaligned load not detected: %+v", res)
			}
		})
	}
}

// TestHangGuardBudgetBoundary pins the watchdog's edge: a run whose step
// count stays at or under the budget exits normally; the same loop one
// lap longer crosses the budget and is flagged at a block head, with the
// unguarded machine left to crash at the hard step limit instead.
func TestHangGuardBudgetBoundary(t *testing.T) {
	loopProgram := func(laps int32) (*vm.VM, map[string]uint32) {
		im, labels := buildImage(t, func(a *asm.Assembler) {
			a.Label("main")
			a.MovRI(isa.ECX, laps)
			a.Label("loop")
			a.SubRI(isa.ECX, 1)
			a.CmpRI(isa.ECX, 0)
			a.Jg("loop")
			a.MovRI(isa.EAX, 0)
			a.Sys(isa.SysExit)
		})
		v, err := vm.New(vm.Config{Image: im, Plugins: []vm.Plugin{&HangGuard{Budget: 100}}})
		if err != nil {
			t.Fatal(err)
		}
		return v, labels
	}

	// 30 laps: 1 + 3*30 + 2 = 93 steps ≤ 100 — must exit.
	v, _ := loopProgram(30)
	if res := v.Run(); res.Outcome != vm.OutcomeExit {
		t.Fatalf("under-budget loop flagged: %+v", res)
	}
	// 40 laps: 121 steps — crosses the budget mid-loop; the failure pins
	// the looping block's head.
	v, labels := loopProgram(40)
	res := v.Run()
	if res.Outcome != vm.OutcomeFailure || res.Failure.Monitor != "HangGuard" {
		t.Fatalf("over-budget loop not flagged: %+v", res)
	}
	if res.Failure.PC != labels["loop"] {
		t.Errorf("hang flagged at %#x, want the loop head %#x", res.Failure.PC, labels["loop"])
	}
	if res.Steps < 100 {
		t.Errorf("flagged after only %d steps, before the %d budget", res.Steps, 100)
	}
}
