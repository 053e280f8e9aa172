package trace

import (
	"repro/internal/isa"
	"repro/internal/vm"
)

// Duplicate-variable elimination (§2.2.4): ClearView statically analyzes
// each basic block to find distinct variables that always hold the same
// value — register copies, values just loaded, unmodified re-reads — and
// keeps only the earliest occurrence. The front end performs the analysis
// at instrumentation time, so duplicate slots are simply never observed
// (the paper reports the optimization halves the number of inferred
// invariants and the associated checking cost).
//
// The analysis is a per-block forward value-numbering over registers: a
// register becomes "known" when first observed or when written by a pure
// data movement (register copy, load, pop); any arithmetic write or
// implicit modification invalidates it. Memory is not tracked — two loads
// from one address stay distinct variables — which keeps the analysis
// conservative in the presence of aliasing.

// dupSlots returns, for each instruction of the block, a bitmask of the
// slot observations that are statically known duplicates of an earlier
// variable: bit si stands for slot si.
func dupSlots(b *vm.Block) []uint8 {
	var known uint16 // bit r: register r holds a value already observed
	out := make([]uint8, len(b.Insts))
	for i, in := range b.Insts {
		for si := 0; ; si++ {
			sp, ok := isa.Slot(in, si)
			if !ok {
				break
			}
			switch sp.Kind {
			case isa.SlotRegA, isa.SlotRegB, isa.SlotRegX:
				if known&(1<<sp.Reg) != 0 {
					out[i] |= 1 << si
				} else {
					// First observation of this register value becomes
					// the canonical variable.
					known |= 1 << sp.Reg
				}
			}
		}
		known = applyWriteEffects(in, known)
	}
	return out
}

// applyWriteEffects returns the register knowledge after one instruction.
func applyWriteEffects(in isa.Inst, known uint16) uint16 {
	switch in.Op {
	case isa.MOVRR:
		// Pure copy: A now holds B's (just-observed) value.
		known |= 1 << in.A
	case isa.LOAD, isa.LOADB, isa.LOADA, isa.POP:
		// A holds exactly the value observed at this instruction's
		// memval slot.
		known |= 1 << in.A
		if in.Op == isa.POP {
			known &^= 1 << isa.ESP
		}
	case isa.MOVRI, isa.LEA,
		isa.ADDRR, isa.ADDRI, isa.SUBRR, isa.SUBRI, isa.MULRR, isa.MULRI,
		isa.DIVRR, isa.MODRR,
		isa.ANDRR, isa.ANDRI, isa.ORRR, isa.ORRI, isa.XORRR, isa.XORRI,
		isa.SHLRI, isa.SHRRI, isa.SARRI, isa.SEXTB:
		known &^= 1 << in.A
	case isa.PUSH, isa.PUSHI:
		known &^= 1 << isa.ESP
	case isa.CALL, isa.CALLR, isa.CALLM, isa.RET:
		known &^= 1<<isa.ESP | 1<<isa.EAX
	case isa.SYS:
		known &^= 1 << isa.EAX
	case isa.COPYB:
		known &^= 1<<isa.ECX | 1<<isa.ESI | 1<<isa.EDI
	}
	return known
}

// observedSlots returns a bitmask of the slots to record for instruction
// i of the block (bit si stands for slot si), honouring duplicate
// elimination unless disabled.
func (r *Recorder) observedSlots(dups []uint8, i int, in isa.Inst) uint8 {
	var all uint8
	for si := 0; ; si++ {
		if _, ok := isa.Slot(in, si); !ok {
			break
		}
		all |= 1 << si
	}
	if r.DisableDupElim {
		return all
	}
	return all &^ dups[i]
}
