// Package repair implements candidate repair generation (§2.5): for each
// correlated invariant it produces the set of patches that enforce the
// invariant by changing register/memory state or the flow of control.
//
// The repair forms follow §2.5.1–§2.5.3:
//
//	one-of      v ∈ {c1..cn} → set v := ci (one repair per observed value);
//	            if v is a call target, also skip the call; and return
//	            immediately from the enclosing procedure (using a learned
//	            stack-pointer-offset invariant to restore ESP).
//	lower-bound c ≤ v        → if v < c then v := c
//	less-than   v1 ≤ v2      → if v1 > v2 then v1 := v2 (or raise v2 := v1
//	            when only v2 is available at the check instruction)
package repair

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/correlate"
	"repro/internal/daikon"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Strategy is the enforcement mechanism of one candidate repair.
type Strategy uint8

const (
	// StratSetValue sets the variable to one observed one-of constant.
	StratSetValue Strategy = iota
	// StratClampLower raises the variable to the lower bound.
	StratClampLower
	// StratClampLess lowers v1 to v2.
	StratClampLess
	// StratRaiseLess raises v2 to v1 (the alternative less-than repair).
	StratRaiseLess
	// StratSkipCall suppresses the call when the invariant is violated.
	StratSkipCall
	// StratReturnProc returns immediately from the enclosing procedure.
	StratReturnProc
	// StratNonzeroClamp sets a zero-valued variable to the learned nonzero
	// witness (the observed value of smallest magnitude) — the clamp form
	// of the nonzero-guard repair for divide-by-zero and stride-zero
	// failures. As a stride repair it doubles as the loop-bound clamp: a
	// re-nonzeroed stride restores the loop's learned progress.
	StratNonzeroClamp
	// StratSkipInst suppresses the faulting instruction when the nonzero
	// invariant is violated — the skip form of the nonzero-guard (the
	// generalization of skip-call to non-call instructions).
	StratSkipInst
	// StratClampMod rounds the variable down to the nearest value
	// congruent with the learned modulus invariant (e.g. re-aligns a
	// misaligned offset to the learned 4-byte stride).
	StratClampMod
)

func (s Strategy) String() string {
	switch s {
	case StratSetValue:
		return "set-value"
	case StratClampLower:
		return "clamp-lower"
	case StratClampLess:
		return "clamp-less"
	case StratRaiseLess:
		return "raise-less"
	case StratSkipCall:
		return "skip-call"
	case StratReturnProc:
		return "return-proc"
	case StratNonzeroClamp:
		return "nonzero-clamp"
	case StratSkipInst:
		return "skip-inst"
	case StratClampMod:
		return "clamp-mod"
	}
	return fmt.Sprintf("strategy%d", uint8(s))
}

// ControlFlowRank orders strategies for the §2.6 tie-break: repairs that
// only change state come before control-flow changes, and among the
// control-flow repairs skipping one call is tried before abandoning the
// whole procedure (the order observed for exploit 269095 in §4.3.1).
func (s Strategy) ControlFlowRank() int {
	switch s {
	case StratSkipCall, StratSkipInst:
		return 1
	case StratReturnProc:
		return 2
	default:
		return 0
	}
}

// Repair is one candidate repair.
type Repair struct {
	Inv      *daikon.Invariant
	Strategy Strategy
	Value    uint32 // StratSetValue: the constant to enforce
	SPDelta  uint32 // StratReturnProc: learned ESP offset at the patch point
	PC       uint32 // enforcement instruction
	Depth    int    // call-stack depth of the enclosing procedure (0 = failure proc)
}

// ID returns a stable identifier.
func (r *Repair) ID() string {
	var buf [64]byte
	b := append(r.Inv.AppendID(buf[:0]), '/')
	b = append(b, r.Strategy.String()...)
	if r.Strategy == StratSetValue {
		b = strconv.AppendUint(append(b, "=0x"...), uint64(r.Value), 16)
	}
	return string(b)
}

func (r *Repair) String() string {
	return fmt.Sprintf("%s at %#x (depth %d)", r.ID(), r.PC, r.Depth)
}

// Less orders repairs by the paper's tie-break rules (§2.6): repairs in
// procedures lower on the call stack first, earlier instructions first,
// state changes before control-flow changes, then deterministic order.
func Less(a, b *Repair) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.PC != b.PC {
		return a.PC < b.PC
	}
	if a.Strategy.ControlFlowRank() != b.Strategy.ControlFlowRank() {
		return a.Strategy.ControlFlowRank() < b.Strategy.ControlFlowRank()
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.ID() < b.ID()
}

// InstAt resolves the decoded instruction at a PC; the generator needs it
// to identify call-target slots. It is satisfied by a closure over the
// binary image.
type InstAt func(pc uint32) (isa.Inst, bool)

// Generate produces the candidate repairs for one correlated invariant
// (§2.5). spOffset supplies learned stack-pointer offsets for the
// return-from-procedure repair; if none was learned at the patch point,
// that repair is not generated.
func Generate(c correlate.Candidate, instAt InstAt, spOffset func(pc uint32) (uint32, bool)) []*Repair {
	inv := c.Inv
	pc := inv.PC()
	in, ok := instAt(pc)
	if !ok {
		return nil
	}
	var out []*Repair
	add := func(r *Repair) {
		r.Inv = inv
		r.PC = pc
		r.Depth = c.Depth
		out = append(out, r)
	}
	switch inv.Kind {
	case daikon.KindOneOf:
		for _, val := range inv.Values {
			add(&Repair{Strategy: StratSetValue, Value: val})
		}
		if in.Op.IsCall() && int(inv.Var.Slot) == isa.TargetSlot(in) {
			add(&Repair{Strategy: StratSkipCall})
		}
		if delta, ok := spOffset(pc); ok {
			add(&Repair{Strategy: StratReturnProc, SPDelta: delta})
		}
	case daikon.KindLowerBound:
		add(&Repair{Strategy: StratClampLower})
	case daikon.KindNonzero:
		// Clamp before skip: the state change is tried first (§2.6
		// ordering), and the skip generalizes skip-call to any faulting
		// instruction.
		add(&Repair{Strategy: StratNonzeroClamp, Value: uint32(inv.Bound)})
		add(&Repair{Strategy: StratSkipInst})
	case daikon.KindModulus:
		add(&Repair{Strategy: StratClampMod})
	case daikon.KindLessThan:
		// Enforcement can only mutate slots of the instruction at the
		// check point.
		if inv.Var.PC == pc {
			add(&Repair{Strategy: StratClampLess})
		}
		if inv.Var2.PC == pc && inv.Var2.PC != inv.Var.PC {
			add(&Repair{Strategy: StratRaiseLess})
		}
		if inv.Var.PC == pc && inv.Var2.PC == pc {
			add(&Repair{Strategy: StratRaiseLess})
		}
	}
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}

// GenerateAll produces repairs for every candidate, in tie-break order.
func GenerateAll(cands []correlate.Candidate, instAt InstAt, spOffset func(pc uint32) (uint32, bool)) []*Repair {
	var out []*Repair
	for _, c := range cands {
		out = append(out, Generate(c, instAt, spOffset)...)
	}
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}

// KindSlot maps an enforceable invariant kind to its index in the Table 3
// "[x,y,z,n,m]" vectors: one-of, lower-bound, less-than, nonzero, modulus.
// Auxiliary kinds return -1.
func KindSlot(k daikon.Kind) int {
	switch k {
	case daikon.KindOneOf:
		return 0
	case daikon.KindLowerBound:
		return 1
	case daikon.KindLessThan:
		return 2
	case daikon.KindNonzero:
		return 3
	case daikon.KindModulus:
		return 4
	}
	return -1
}

// NumKinds is the length of the KindSlot-indexed reporting vectors.
const NumKinds = 5

// CountByKind tallies repairs per invariant kind for the Table 3
// "[x,y,z,n,m]" reporting (see KindSlot for the index order).
func CountByKind(rs []*Repair) [NumKinds]int {
	var out [NumKinds]int
	seen := map[string]bool{}
	for _, r := range rs {
		id := r.Inv.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		if s := KindSlot(r.Inv.Kind); s >= 0 {
			out[s]++
		}
	}
	return out
}

// BuildPatches compiles the repair into execution-environment patches. The
// first returned patch is the enforcement patch; a second staging patch is
// added for two-variable invariants whose variables live at different
// instructions. Patch IDs are prefixed so concurrent campaigns and adopted
// patches never collide.
func (r *Repair) BuildPatches(prefix string) []*vm.Patch {
	inv := r.Inv
	var staged stagedVal
	var patches []*vm.Patch

	if inv.Kind == daikon.KindLessThan && inv.Var.PC != inv.Var2.PC {
		early, earlySlot := inv.Var, inv.Var.Slot
		if inv.Var2.PC < early.PC {
			early, earlySlot = inv.Var2, inv.Var2.Slot
		}
		patches = append(patches, &vm.Patch{
			ID:   fmt.Sprintf("%s/stage/%s", prefix, r.ID()),
			Addr: early.PC,
			Prio: vm.PrioRepair,
			Hook: func(ctx *vm.Ctx) error {
				val, err := ctx.EvalSlot(int(earlySlot))
				if err != nil {
					staged = stagedVal{}
					return nil
				}
				staged = stagedVal{val: val, valid: true}
				return nil
			},
		})
	}

	patches = append(patches, &vm.Patch{
		ID:   fmt.Sprintf("%s/repair/%s", prefix, r.ID()),
		Addr: r.PC,
		Prio: vm.PrioRepair,
		Hook: func(ctx *vm.Ctx) error { return r.enforce(ctx, &staged) },
	})
	return patches
}

type stagedVal struct {
	val   uint32
	valid bool
}

// violated evaluates the invariant at the patch point. An unreadable
// variable (the observed address is unmapped) is treated as a violation:
// the machine state is already outside the learned envelope, and the
// control-flow repairs can still rescue the execution.
func (r *Repair) violated(ctx *vm.Ctx, staged *stagedVal) (v1, v2 uint32, violated bool) {
	inv := r.Inv
	switch inv.Kind {
	case daikon.KindLessThan:
		if inv.Var.PC == inv.Var2.PC {
			a, err1 := ctx.EvalSlot(int(inv.Var.Slot))
			b, err2 := ctx.EvalSlot(int(inv.Var2.Slot))
			if err1 != nil || err2 != nil {
				return 0, 0, true
			}
			return a, b, !inv.Holds(a, b)
		}
		if !staged.valid {
			return 0, 0, false // first variable never reached: cannot check
		}
		lateVar := inv.Var2
		if inv.Var.PC == r.PC {
			lateVar = inv.Var
		}
		lv, err := ctx.EvalSlot(int(lateVar.Slot))
		if err != nil {
			return 0, 0, true
		}
		if lateVar == inv.Var {
			return lv, staged.val, !inv.Holds(lv, staged.val)
		}
		return staged.val, lv, !inv.Holds(staged.val, lv)
	default:
		val, err := ctx.EvalSlot(int(inv.Var.Slot))
		if err != nil {
			return 0, 0, true
		}
		return val, 0, !inv.Holds(val, 0)
	}
}

func (r *Repair) enforce(ctx *vm.Ctx, staged *stagedVal) error {
	v1, v2, bad := r.violated(ctx, staged)
	if !bad {
		return nil
	}
	inv := r.Inv
	switch r.Strategy {
	case StratSetValue:
		return ctx.SetSlot(int(inv.Var.Slot), r.Value)
	case StratClampLower:
		return ctx.SetSlot(int(inv.Var.Slot), uint32(inv.Bound))
	case StratClampLess:
		// v1 := v2. For cross-instruction invariants v2 was staged.
		return ctx.SetSlot(int(inv.Var.Slot), v2)
	case StratRaiseLess:
		return ctx.SetSlot(int(inv.Var2.Slot), v1)
	case StratNonzeroClamp:
		return ctx.SetSlot(int(inv.Var.Slot), r.Value)
	case StratClampMod:
		m, rr := inv.Modulus()
		if m < 2 {
			return nil
		}
		// Round v1 to the nearest congruent value below it — or above it
		// when rounding down would wrap past zero (an offset of 1 under
		// v ≡ 2 (mod 4) must become 2, not 0xFFFFFFFE).
		deficit := (v1%m + m - rr%m) % m
		enforced := v1 - deficit
		if deficit > v1 {
			enforced = v1 + (m - deficit)
		}
		return ctx.SetSlot(int(inv.Var.Slot), enforced)
	case StratSkipCall, StratSkipInst:
		ctx.Skip()
		return nil
	case StratReturnProc:
		// Restore ESP to its procedure-entry value using the learned
		// offset, then perform the return: pop the return address and
		// transfer there. EAX is zeroed as the synthesized return value.
		esp := ctx.Reg(isa.ESP) + r.SPDelta
		ret, err := ctx.VM.Mem.Read32(esp)
		if err != nil {
			return err // stack gone: crash, repair evaluation will discard
		}
		ctx.SetReg(isa.ESP, esp+4)
		ctx.SetReg(isa.EAX, 0)
		ctx.Jump(ret)
		return nil
	}
	return fmt.Errorf("repair: unknown strategy %v", r.Strategy)
}
