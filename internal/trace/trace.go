// Package trace implements the Daikon x86-style front end (§2.2.1): it
// instruments instructions as their basic blocks enter the code cache and
// records, each time they execute, the values of the operands they read and
// the addresses they compute. Each run is folded as it executes into the
// inference engine's per-run statistics, which are committed only if the
// run ends normally and dropped otherwise, so that erroneous executions
// never contaminate the invariant database (§3.1).
//
// A Recorder can be restricted to a region of the application (a predicate
// over instruction addresses); this is the mechanism behind the community's
// amortized distributed learning (§3.1), where each member traces only a
// small randomly chosen part of every running application.
package trace

import (
	"math/bits"

	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// blockPlan is one block's traced positions — each observed (instruction,
// slot), in execution order — resolved once, at instrumentation, to the
// engine's dense statistics.
type blockPlan struct {
	vars  []int32 // position → dense variable
	pairs []int32 // positions i < j → dense pair (i, j), at j*(j-1)/2 + i
}

// passObs is one observation of the current pass.
type passObs struct {
	pos int32
	val uint32
}

// Recorder is the learning front end. It is a vm.Plugin and may be shared
// across sequential runs, one machine at a time: vm.New installs it, and
// CommitRun or DiscardRun ends that machine's run.
//
// It takes both machine events. Install starts the run's outermost frame
// at the new machine's stack pointer, so stack-pointer offsets are
// measured from the same entry whatever region Filter traces. EnterBlock
// starts a new pass at every block entry, so pair relations are tracked
// only within one execution of a basic block (the same-basic-block
// restriction), even when a repair suppresses the block's first
// instruction.
type Recorder struct {
	Engine *daikon.Engine
	// Filter restricts instrumentation to instructions for which it
	// returns true; nil instruments everything.
	Filter func(pc uint32) bool
	// DisableDupElim turns off static duplicate-variable elimination
	// (ablation knob; see dup.go).
	DisableDupElim bool

	// pass is the current block pass's observations, in execution order:
	// pair relations are folded against every earlier observation of the
	// pass.
	pass []passObs

	entrySPs []uint32
	obsCount uint64
}

// NewRecorder returns a front end feeding the given engine.
func NewRecorder(engine *daikon.Engine) *Recorder {
	return &Recorder{Engine: engine}
}

// Name implements vm.Plugin.
func (r *Recorder) Name() string { return "daikon-frontend" }

// Observations returns the cumulative number of trace entries recorded
// (the learning-overhead benchmarks report this).
func (r *Recorder) Observations() uint64 { return r.obsCount }

func (r *Recorder) traced(pc uint32) bool {
	return r.Filter == nil || r.Filter(pc)
}

// Install implements vm.Installer: the run's outermost frame is entered
// with the machine's initial stack pointer.
func (r *Recorder) Install(v *vm.VM) {
	r.entrySPs = append(r.entrySPs[:0], v.CPU.Regs[isa.ESP])
}

// EnterBlock implements vm.BlockEnterer: entering a block starts a new
// pass.
func (r *Recorder) EnterBlock() { r.pass = r.pass[:0] }

// Instrument implements vm.Plugin. The recorder's plans depend on its
// engine and Filter, so it does not implement vm.BlockSharer: a machine
// that runs it instruments a private code table.
func (r *Recorder) Instrument(b *vm.Block) {
	eng := r.Engine
	dups := dupSlots(b)
	plan := &blockPlan{}
	for i := range b.Insts {
		in := b.Insts[i]
		pc := b.Addr(i)

		// Call/return bookkeeping keeps the procedure-entry stack-pointer
		// stack consistent even through untraced regions. It runs at a
		// priority after the observation hook: the observation at a call
		// or return instruction belongs to the procedure containing it,
		// so the entry-SP stack must still reflect that procedure when
		// the stack-pointer offset is recorded.
		const prioBookkeeping = vm.PrioTrace + 1
		switch {
		case in.Op.IsCall():
			b.AddHook(i, prioBookkeeping, func(ctx *vm.Ctx) error {
				r.entrySPs = append(r.entrySPs, ctx.Reg(isa.ESP)-4)
				return nil
			})
		case in.Op == isa.RET:
			b.AddHook(i, prioBookkeeping, func(ctx *vm.Ctx) error {
				if len(r.entrySPs) > 1 {
					r.entrySPs = r.entrySPs[:len(r.entrySPs)-1]
				}
				return nil
			})
		}

		if !r.traced(pc) {
			continue
		}
		observe := r.observedSlots(dups, i, in)
		first := int32(len(plan.vars))
		for m := observe; m != 0; m &= m - 1 {
			plan.vars = append(plan.vars, eng.Var(daikon.VarID{PC: pc, Slot: uint8(bits.TrailingZeros8(m))}))
		}
		sp := eng.SP(pc)
		b.AddHook(i, vm.PrioTrace, func(ctx *vm.Ctx) error {
			pos := first
			for m := observe; m != 0; m &= m - 1 {
				val, err := ctx.EvalSlot(bits.TrailingZeros8(m))
				if err == nil {
					r.fold(plan, pos, val)
				}
				// Otherwise the observed address is unmapped and the
				// instruction is about to fault: nothing is recorded for
				// this slot.
				pos++
			}
			eng.FoldSP(sp, r.entrySPs[len(r.entrySPs)-1]-ctx.Reg(isa.ESP))
			return nil
		})
	}

	n := len(plan.vars)
	plan.pairs = make([]int32, 0, n*(n-1)/2)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			plan.pairs = append(plan.pairs, eng.Pair(plan.vars[i], plan.vars[j]))
		}
	}
}

// fold folds one observation at position pos of plan into the engine's
// run: the variable's value, and its pair relation with every earlier
// observation of the pass. A pass is one execution of plan's block, so
// its positions arrive in order and each pair comes from the plan.
func (r *Recorder) fold(plan *blockPlan, pos int32, val uint32) {
	eng := r.Engine
	eng.FoldVar(plan.vars[pos], val)
	r.obsCount++
	row := plan.pairs[pos*(pos-1)/2:]
	for _, o := range r.pass {
		eng.FoldPair(row[o.pos], o.val, val)
	}
	r.pass = append(r.pass, passObs{pos: pos, val: val})
}

// CommitRun commits the run's observations to the inference engine (the
// run ended normally) and resets per-run state.
func (r *Recorder) CommitRun() {
	r.Engine.CommitRun()
	r.reset()
}

// DiscardRun drops the run's observations (the run was erroneous).
func (r *Recorder) DiscardRun() {
	r.Engine.DiscardRun()
	r.reset()
}

func (r *Recorder) reset() {
	r.pass = r.pass[:0]
	r.entrySPs = r.entrySPs[:0]
}
