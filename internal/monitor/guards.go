package monitor

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// DetectorNames lists the name of every failure detector this package
// can deploy — the exact strings the monitors put in vm.Failure.Monitor.
// It is the single source for every consumer that must recognize
// legitimate detections (the community's report sanity checks, tests):
// a failure report naming anything else is fabricated. Keep it in sync
// with the Name methods; the docs test enforces the correspondence.
var DetectorNames = []string{
	"MemoryFirewall",
	"HeapGuard",
	"ShadowStack",
	"FaultGuard",
	"HangGuard",
}

// FaultGuard is the arithmetic-fault detector: it validates the operands
// of faultable instructions (DIVRR/MODRR divisors, LOADA addresses) just
// before they execute and terminates the application with a monitored
// failure when the instruction would otherwise raise a hardware fault.
// Like Heap Guard it is conservative — it fires exactly when the fault
// would fire — so it has no false positives, but unlike the raw fault the
// failure carries the ClearView provenance (failure location, monitor,
// shadow-stack snapshot) the correlation machinery needs.
type FaultGuard struct{}

// NewFaultGuard returns an arithmetic-fault monitor.
func NewFaultGuard() *FaultGuard { return &FaultGuard{} }

// Name implements vm.Plugin.
func (g *FaultGuard) Name() string { return "FaultGuard" }

// ShareBlocks implements vm.BlockSharer.
func (g *FaultGuard) ShareBlocks() {}

// Instrument implements vm.Plugin: every faultable instruction is checked
// against its fault condition. Because repairs run at a lower priority, an
// enforced invariant that clamps a divisor or re-aligns an address is
// validated on the enforced value, exactly as Memory Firewall validates
// redirected transfers.
func (g *FaultGuard) Instrument(b *vm.Block) {
	for i, in := range b.Insts {
		if !in.Op.Faultable() {
			continue
		}
		switch in.Op {
		case isa.DIVRR, isa.MODRR:
			b.AddHook(i, vm.PrioMonitor, checkDivisor)
		case isa.LOADA:
			b.AddHook(i, vm.PrioMonitor, checkAligned)
		}
	}
}

// checkDivisor fails a DIVRR/MODRR about to divide by zero.
func checkDivisor(ctx *vm.Ctx) error {
	if ctx.Reg(ctx.Inst.B) != 0 {
		return nil
	}
	return &vm.Failure{
		PC:      ctx.PC,
		Monitor: "FaultGuard",
		Kind:    "divide by zero",
		Detail:  fmt.Sprintf("%s with zero divisor", ctx.Inst.Op),
	}
}

// checkAligned fails a LOADA about to read an unaligned address.
func checkAligned(ctx *vm.Ctx) error {
	addr := ctx.EffAddr()
	if addr&3 == 0 {
		return nil
	}
	return &vm.Failure{
		PC:      ctx.PC,
		Monitor: "FaultGuard",
		Kind:    "unaligned access",
		Detail:  fmt.Sprintf("%s at %#x", ctx.Inst.Op, addr),
		Target:  addr,
	}
}

// DefaultHangBudget is the default step budget of the hang watchdog. It is
// sized well above any legitimate single-input run of the protected
// workload (the heaviest evaluation page stays under a tenth of it) and
// well below vm.DefaultMaxSteps, so the watchdog fires long before the
// machine's hard hang crash while never tripping on honest traffic.
const DefaultHangBudget = 400_000

// HangGuard is the runaway-loop detector — the paper's "infinite loop"
// future-work failure class. It arms the machine's step-budget watchdog:
// once the budget is exhausted, the next basic-block dispatch (the point
// that already records edge coverage) terminates the run with a monitored
// failure whose location is the looping block's head. The budget check
// rides the dispatch path, so per-instruction execution pays nothing.
//
// A step budget cannot decide loop termination in general; HangGuard is
// deliberately calibrated (budget >> any legitimate run) so that, on the
// workloads the community runs, it behaves like the other monitors: no
// false positives in practice, deterministic failure locations always.
type HangGuard struct {
	// Budget is the step budget; 0 selects DefaultHangBudget.
	Budget uint64
}

// NewHangGuard returns a hang monitor with the default budget.
func NewHangGuard() *HangGuard { return &HangGuard{} }

// Name implements vm.Plugin.
func (h *HangGuard) Name() string { return "HangGuard" }

// ShareBlocks implements vm.BlockSharer.
func (h *HangGuard) ShareBlocks() {}

// Instrument implements vm.Plugin; the watchdog needs no per-block hooks.
func (h *HangGuard) Instrument(*vm.Block) {}

// EffectiveBudget returns the armed budget.
func (h *HangGuard) EffectiveBudget() uint64 {
	if h.Budget == 0 {
		return DefaultHangBudget
	}
	return h.Budget
}

// Install implements vm.Installer: it arms the machine's hang watch.
func (h *HangGuard) Install(v *vm.VM) {
	budget := h.EffectiveBudget()
	v.SetHangWatch(budget, func(pc uint32, steps uint64) *vm.Failure {
		return &vm.Failure{
			PC:      pc,
			Monitor: "HangGuard",
			Kind:    "runaway loop",
			Detail:  fmt.Sprintf("step budget %d exhausted", budget),
		}
	})
}
