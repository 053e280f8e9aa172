// Package monitor implements ClearView's failure detectors (§2.3):
//
//   - MemoryFirewall validates every indirect control flow transfer
//     (indirect calls and jumps, returns) and terminates the application
//     with a failure when the target lies outside the original code — the
//     program-shepherding defence against binary code injection.
//   - HeapGuard detects out-of-bounds heap writes using the allocator's
//     boundary canaries and allocation map.
//   - ShadowStack maintains an auxiliary call stack that survives
//     corruption of the native stack and gives ClearView the caller
//     procedures to search for correlated invariants.
//
// Monitors are deliberately conservative: they have no false positives.
// They are vm.Plugins; ShadowStack and the stateful guards carry per-run
// state and must be constructed fresh for each VM instance. A monitor that
// wires itself into the machine beyond per-block hooks (MemoryFirewall,
// ShadowStack, HangGuard) does so in Install, which vm.New calls.
//
// Every monitor implements vm.BlockSharer: its hooks are plain functions
// that capture nothing and reach the machine's own instance, where its
// per-run state lives (the shadow stack's return sites, Heap Guard's
// Enabled switch), through vm.Ctx.Plugin. So machines of one image under
// one detector set share their instrumented blocks.
package monitor

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// MemoryFirewall is the illegal-control-flow-transfer detector.
type MemoryFirewall struct{}

// NewMemoryFirewall returns a firewall monitor.
func NewMemoryFirewall() *MemoryFirewall { return &MemoryFirewall{} }

// Name implements vm.Plugin.
func (m *MemoryFirewall) Name() string { return "MemoryFirewall" }

// ShareBlocks implements vm.BlockSharer.
func (m *MemoryFirewall) ShareBlocks() {}

// Install implements vm.Installer: the firewall registers itself as the
// machine's transfer validator so that exception-handler dispatch (a
// control transfer that does not correspond to a decoded instruction) is
// subjected to the same program-shepherding policy as decoded transfers.
func (m *MemoryFirewall) Install(v *vm.VM) { v.SetTransferValidator(validateDispatch) }

// Instrument implements vm.Plugin: every indirect transfer is validated
// just before it executes. Because repair patches run at a lower priority,
// an enforced invariant that redirects the transfer is validated on the
// redirected target.
func (m *MemoryFirewall) Instrument(b *vm.Block) {
	for i, in := range b.Insts {
		if in.Op.IsIndirect() {
			b.AddHook(i, vm.PrioMonitor, checkTransfer)
		}
	}
}

// checkTransfer fails an indirect transfer whose target lies outside the
// original code.
func checkTransfer(ctx *vm.Ctx) error {
	target, err := ctx.TransferTarget()
	if err != nil {
		// The transfer itself will fault; let the interpreter turn it
		// into a crash.
		return nil
	}
	if !ctx.VM.InCode(target) {
		return &vm.Failure{
			PC:      ctx.PC,
			Monitor: "MemoryFirewall",
			Kind:    "illegal control flow transfer",
			Detail:  fmt.Sprintf("%s to %#x", ctx.Inst.Op, target),
			Target:  target,
		}
	}
	return nil
}

// validateDispatch is Memory Firewall's exception-dispatch check: the
// handler address must lie in the original code.
func validateDispatch(v *vm.VM, pc, target uint32) *vm.Failure {
	if v.InCode(target) {
		return nil
	}
	return &vm.Failure{
		PC:      pc,
		Monitor: "MemoryFirewall",
		Kind:    "illegal control flow transfer",
		Detail:  fmt.Sprintf("exception dispatch to %#x", target),
		Target:  target,
	}
}

// HeapGuard is the out-of-bounds heap write detector. It can be enabled
// and disabled while the application runs without perturbing execution
// (§2.3); when disabled its hooks are inert.
type HeapGuard struct {
	Enabled bool
}

// NewHeapGuard returns an enabled Heap Guard monitor.
func NewHeapGuard() *HeapGuard { return &HeapGuard{Enabled: true} }

// Name implements vm.Plugin.
func (h *HeapGuard) Name() string { return "HeapGuard" }

// ShareBlocks implements vm.BlockSharer.
func (h *HeapGuard) ShareBlocks() {}

// Instrument implements vm.Plugin: every write into the heap arena is
// checked. If the written location currently holds the canary value, the
// allocation map disambiguates a legitimate in-bounds write of the canary
// value from an out-of-bounds write onto a block boundary.
func (h *HeapGuard) Instrument(b *vm.Block) {
	for i, in := range b.Insts {
		switch {
		case in.Op.IsStore():
			b.AddHook(i, vm.PrioMonitor, checkStore)
		case in.Op == isa.COPYB:
			b.AddHook(i, vm.PrioMonitor, checkCopy)
		}
	}
}

// checkStore checks one store, unless this machine's guard is disabled.
func checkStore(ctx *vm.Ctx) error {
	if !ctx.Plugin().(*HeapGuard).Enabled {
		return nil
	}
	return checkWrite(ctx, ctx.EffAddr(), ctx.Inst.Op.String())
}

// checkCopy checks a block copy, unless this machine's guard is disabled.
// A block copy is a sequence of byte writes; the guard scans the
// destination range for the first boundary violation, just as per-write
// instrumentation of rep movsb would.
func checkCopy(ctx *vm.Ctx) error {
	if !ctx.Plugin().(*HeapGuard).Enabled {
		return nil
	}
	dst := ctx.Reg(isa.EDI)
	count := ctx.Reg(isa.ECX)
	const scanCap = 1 << 20 // bound work on absurd counts
	if count > scanCap {
		count = scanCap
	}
	for off := uint32(0); off < count; off++ {
		if err := checkWrite(ctx, dst+off, "copyb"); err != nil {
			return err
		}
		if !ctx.VM.Heap.Contains(dst + off) {
			break // left the heap arena; faults handle the rest
		}
	}
	return nil
}

// checkWrite applies the canary test to one written address.
func checkWrite(ctx *vm.Ctx, addr uint32, what string) error {
	heap := ctx.VM.Heap
	if !heap.Contains(addr) {
		return nil
	}
	word, err := ctx.VM.Mem.Read32(addr &^ 3)
	if err != nil || word != mem.Canary {
		return nil
	}
	if _, inBounds := heap.FindBlock(addr); inBounds {
		// A legitimate previous in-bounds write planted the canary
		// value; not an error.
		return nil
	}
	return &vm.Failure{
		PC:      ctx.PC,
		Monitor: "HeapGuard",
		Kind:    "out of bounds write",
		Detail:  fmt.Sprintf("%s hits canary", what),
		Target:  addr,
	}
}

// ShadowStack maintains the auxiliary procedure call stack (§2.3). It is
// both a vm.Plugin and a vm.StackProvider; Install, which vm.New calls,
// wires it into a machine.
type ShadowStack struct {
	rets []uint32 // return addresses, outermost first
}

// NewShadowStack returns an empty shadow stack monitor.
func NewShadowStack() *ShadowStack { return &ShadowStack{} }

// Name implements vm.Plugin.
func (s *ShadowStack) Name() string { return "ShadowStack" }

// ShareBlocks implements vm.BlockSharer.
func (s *ShadowStack) ShareBlocks() {}

// Install implements vm.Installer: it registers the shadow stack as the
// machine's stack provider.
func (s *ShadowStack) Install(v *vm.VM) { v.SetStackProvider(s) }

// Instrument implements vm.Plugin: calls push their return site, returns
// pop it. The instrumentation is inline with execution and imposes cost
// only on call/return instructions. The bookkeeping runs at a priority
// after the failure detectors so that a transfer Memory Firewall rejects is
// never accounted as having happened (the failing call is not yet on the
// stack; the failing return has not yet popped its frame).
func (s *ShadowStack) Instrument(b *vm.Block) {
	const prioBookkeeping = vm.PrioMonitor + 5
	for i, in := range b.Insts {
		switch {
		case in.Op.IsCall():
			b.AddHook(i, prioBookkeeping, pushReturn)
		case in.Op == isa.RET:
			b.AddHook(i, prioBookkeeping, popReturn)
		}
	}
}

// pushReturn pushes a call's return site onto this machine's shadow stack.
func pushReturn(ctx *vm.Ctx) error {
	s := ctx.Plugin().(*ShadowStack)
	s.rets = append(s.rets, ctx.PC+isa.InstSize)
	return nil
}

// popReturn pops this machine's shadow stack at a return.
func popReturn(ctx *vm.Ctx) error {
	s := ctx.Plugin().(*ShadowStack)
	if len(s.rets) > 0 {
		s.rets = s.rets[:len(s.rets)-1]
	}
	return nil
}

// StackSnapshot implements vm.StackProvider: the return sites of the
// procedures on the stack, innermost caller first. Unlike the native
// stack, this survives stack-smashing corruption.
func (s *ShadowStack) StackSnapshot() []uint32 {
	out := make([]uint32, 0, len(s.rets))
	for i := len(s.rets) - 1; i >= 0; i-- {
		out = append(out, s.rets[i])
	}
	return out
}

// Depth returns the current call depth.
func (s *ShadowStack) Depth() int { return len(s.rets) }
