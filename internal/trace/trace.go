// Package trace implements the Daikon x86-style front end (§2.2.1): it
// instruments instructions as their basic blocks enter the code cache and
// records, each time they execute, the values of the operands they read and
// the addresses they compute. The recorded data is buffered per run and
// committed to the inference engine only if the run ends normally, so that
// erroneous executions never contaminate the invariant database (§3.1).
//
// A Recorder can be restricted to a region of the application (a predicate
// over instruction addresses); this is the mechanism behind the community's
// amortized distributed learning (§3.1), where each member traces only a
// small randomly chosen part of every running application.
package trace

import (
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

type spObs struct {
	pc    uint32
	delta uint32
}

// Recorder is the learning front end. It is a vm.Plugin and may be shared
// across sequential runs; per-run buffers are committed or discarded via
// CommitRun / DiscardRun.
type Recorder struct {
	Engine *daikon.Engine
	// Filter restricts instrumentation to instructions for which it
	// returns true; nil instruments everything.
	Filter func(pc uint32) bool
	// DisableDupElim turns off static duplicate-variable elimination
	// (ablation knob; see dup.go).
	DisableDupElim bool

	passes  [][]daikon.Obs
	curPass []daikon.Obs
	spBuf   []spObs

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

// Instrument implements vm.Plugin.
func (r *Recorder) Instrument(_ *vm.VM, b *vm.Block) {
	dups := dupSlots(b)
	for i := range b.Insts {
		in := b.Insts[i]
		pc := b.Addr(i)

		if i == 0 {
			// Entering the block starts a new pass: pair relations are
			// tracked only within one pass (same-basic-block
			// restriction).
			b.AddHook(i, vm.PrioTrace, func(ctx *vm.Ctx) error {
				r.closePass()
				return nil
			})
		}

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
				r.lazyInit(ctx)
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
		pcCopy := pc
		b.AddHook(i, vm.PrioTrace, func(ctx *vm.Ctx) error {
			r.lazyInit(ctx)
			for _, si := range observe {
				val, err := ctx.EvalSlot(si)
				if err != nil {
					// The observed address is unmapped; the instruction
					// is about to fault. Record nothing for this slot.
					continue
				}
				r.curPass = append(r.curPass, daikon.Obs{
					Var: daikon.VarID{PC: pcCopy, Slot: uint8(si)},
					Val: val,
				})
				r.obsCount++
			}
			entry := r.entrySPs[len(r.entrySPs)-1]
			r.spBuf = append(r.spBuf, spObs{pc: pcCopy, delta: entry - ctx.Reg(isa.ESP)})
			return nil
		})
	}
}

func (r *Recorder) lazyInit(ctx *vm.Ctx) {
	if len(r.entrySPs) == 0 {
		r.entrySPs = append(r.entrySPs, ctx.Reg(isa.ESP))
	}
}

func (r *Recorder) closePass() {
	if len(r.curPass) > 0 {
		r.passes = append(r.passes, r.curPass)
		r.curPass = nil
	}
}

// CommitRun feeds the buffered observations of a completed normal run into
// the inference engine and resets per-run state.
func (r *Recorder) CommitRun() {
	r.closePass()
	for _, p := range r.passes {
		r.Engine.ObserveBlockPass(p)
	}
	for _, s := range r.spBuf {
		r.Engine.ObserveSP(s.pc, s.delta)
	}
	r.reset()
}

// DiscardRun drops the buffered observations (the run was erroneous).
func (r *Recorder) DiscardRun() { r.reset() }

func (r *Recorder) reset() {
	r.passes = nil
	r.curPass = nil
	r.spBuf = nil
	r.entrySPs = nil
}
