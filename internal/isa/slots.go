package isa

import "fmt"

// SlotKind classifies one observable value at an instruction. Slots are the
// ClearView/Daikon notion of a "variable": a value that is meaningful at the
// level of the compiled binary — a register an instruction reads, an address
// it computes, or a value it loads through that address (§2.2.1).
type SlotKind uint8

const (
	// SlotRegA is the value of register A read before execution.
	SlotRegA SlotKind = iota
	// SlotRegB is the value of register B (second operand or memory base).
	SlotRegB
	// SlotRegX is the value of the memory index register.
	SlotRegX
	// SlotAddr is the memory address the instruction computes
	// (B + X<<Scale + Imm, or ESP for stack operations).
	SlotAddr
	// SlotMemVal is the value read through the computed address — for
	// CALLM this is the function pointer fetched from memory, which is
	// the variable ClearView's one-of call-site invariants range over.
	SlotMemVal
)

var slotKindNames = [...]string{"regA", "regB", "regX", "addr", "memval"}

func (k SlotKind) String() string {
	if int(k) < len(slotKindNames) {
		return slotKindNames[k]
	}
	return fmt.Sprintf("slot%d", uint8(k))
}

// SlotSpec describes one slot of an instruction.
type SlotSpec struct {
	Kind SlotKind
	Reg  Reg // the register read, for SlotRegA/SlotRegB/SlotRegX
}

func (s SlotSpec) String() string {
	switch s.Kind {
	case SlotRegA, SlotRegB, SlotRegX:
		return s.Kind.String() + ":" + s.Reg.String()
	}
	return s.Kind.String()
}

// Settable reports whether a repair patch can enforce an invariant on this
// slot by mutating machine state before the instruction executes. Register
// slots are set by writing the register; SlotMemVal is set by writing the
// computed address (so the instruction then reads the enforced value).
// Computed addresses themselves are derived quantities and cannot be
// assigned directly.
func (s SlotSpec) Settable() bool { return s.Kind != SlotAddr }

// slotSrc says where a slot's register comes from.
type slotSrc uint8

const (
	srcNone  slotSrc = iota // no register (SlotAddr, SlotMemVal)
	srcA                    // the instruction's A operand
	srcB                    // the instruction's B operand
	srcX                    // the index register; the slot exists only if there is one
	srcFixed                // an implicit operand, named by the template
)

// slotTmpl is one slot of an opcode's form, before it is bound to an
// instruction's operands.
type slotTmpl struct {
	kind SlotKind
	src  slotSrc
	reg  Reg // for srcFixed
}

var (
	tmplRegA   = slotTmpl{kind: SlotRegA, src: srcA}
	tmplRegB   = slotTmpl{kind: SlotRegB, src: srcB}
	tmplRegX   = slotTmpl{kind: SlotRegX, src: srcX}
	tmplAddr   = slotTmpl{kind: SlotAddr}
	tmplMemVal = slotTmpl{kind: SlotMemVal}
)

// slotForms is the one table from opcode to slots, in slot-index order —
// the order Slots documents as part of the serialized-invariant format.
// Slots, Slot and TargetSlot all read it. A memory operand contributes its
// base, its index register if present, and the computed address.
var slotForms = [256][]slotTmpl{
	MOVRR:  {tmplRegB},
	LOAD:   {tmplRegB, tmplRegX, tmplAddr, tmplMemVal},
	LOADB:  {tmplRegB, tmplRegX, tmplAddr, tmplMemVal},
	LOADA:  {tmplRegB, tmplRegX, tmplAddr, tmplMemVal},
	STORE:  {tmplRegA, tmplRegB, tmplRegX, tmplAddr},
	STOREB: {tmplRegA, tmplRegB, tmplRegX, tmplAddr},
	LEA:    {tmplRegB, tmplRegX, tmplAddr},
	ADDRR:  {tmplRegA, tmplRegB},
	SUBRR:  {tmplRegA, tmplRegB},
	MULRR:  {tmplRegA, tmplRegB},
	ANDRR:  {tmplRegA, tmplRegB},
	ORRR:   {tmplRegA, tmplRegB},
	XORRR:  {tmplRegA, tmplRegB},
	CMPRR:  {tmplRegA, tmplRegB},
	DIVRR:  {tmplRegA, tmplRegB},
	MODRR:  {tmplRegA, tmplRegB},
	ADDRI:  {tmplRegA},
	SUBRI:  {tmplRegA},
	MULRI:  {tmplRegA},
	ANDRI:  {tmplRegA},
	ORRI:   {tmplRegA},
	XORRI:  {tmplRegA},
	SHLRI:  {tmplRegA},
	SHRRI:  {tmplRegA},
	SARRI:  {tmplRegA},
	CMPRI:  {tmplRegA},
	SEXTB:  {tmplRegA},
	JMPR:   {tmplRegA},
	CALLR:  {tmplRegA},
	PUSH:   {tmplRegA},
	CALLM:  {tmplRegB, tmplRegX, tmplAddr, tmplMemVal},
	RET:    {tmplAddr, tmplMemVal},
	POP:    {tmplAddr, tmplMemVal},
	// Implicit operands of the block copy: count, source pointer,
	// destination pointer. The count slot is the variable ClearView's
	// copy-length invariants (lower-bound and less-than) range over.
	COPYB: {
		{kind: SlotRegA, src: srcFixed, reg: ECX},
		{kind: SlotRegB, src: srcFixed, reg: ESI},
		{kind: SlotRegX, src: srcFixed, reg: EDI},
	},
}

// indexedForms[x][op] is slotForms[op] bound to whether the instruction has
// an index register (x = 1) or not (x = 0, index-register slots dropped), so
// a slot index addresses it directly. It is derived from slotForms.
var indexedForms [2][256][]slotTmpl

func init() {
	for op, form := range slotForms {
		indexedForms[1][op] = form
		for _, t := range form {
			if t.src != srcX {
				indexedForms[0][op] = append(indexedForms[0][op], t)
			}
		}
	}
}

// form returns the slot templates, indexed by slot, of an instruction with
// opcode op and index register x. Slot and Slots pass operands, not the
// Inst, so the hot path never copies the instruction through memory.
func form(op Op, x Reg) []slotTmpl {
	hasX := 0
	if x.Valid() {
		hasX = 1
	}
	return indexedForms[hasX][op]
}

// bind returns the template's slot for an instruction with operands a, b
// and index register x.
func (t slotTmpl) bind(a, b, x Reg) SlotSpec {
	s := SlotSpec{Kind: t.kind}
	switch t.src {
	case srcA:
		s.Reg = a
	case srcB:
		s.Reg = b
	case srcX:
		s.Reg = x
	case srcFixed:
		s.Reg = t.reg
	}
	return s
}

// Slots returns the observable slots of an instruction, in a fixed order
// that defines each slot's index. A variable in the invariant system is
// identified by (instruction address, slot index), so this order is part of
// the serialized-invariant format and must not change.
func Slots(in Inst) []SlotSpec {
	f := form(in.Op, in.X)
	var out []SlotSpec
	for _, t := range f {
		out = append(out, t.bind(in.A, in.B, in.X))
	}
	return out
}

// Slot returns Slots(in)[si] without building the slot list, or false if
// the instruction has no slot si. It allocates nothing, so the checking
// and repair hooks can call it on every execution of a patched
// instruction.
func Slot(in Inst, si int) (SlotSpec, bool) {
	f := form(in.Op, in.X)
	if si < 0 || si >= len(f) {
		return SlotSpec{}, false
	}
	return f[si].bind(in.A, in.B, in.X), true
}

// TargetSlot returns the slot index holding the control-transfer target of
// an indirect transfer, or -1 if the instruction is not an indirect
// transfer. Enforcing a one-of invariant on this slot redirects the
// transfer (the "call a previously observed function" repair of §2.5.1).
func TargetSlot(in Inst) int {
	switch in.Op {
	case JMPR, CALLR:
		return 0 // SlotRegA
	case CALLM:
		for i := 0; ; i++ {
			s, ok := Slot(in, i)
			if !ok {
				break
			}
			if s.Kind == SlotMemVal {
				return i
			}
		}
	case RET:
		return 1 // SlotMemVal after SlotAddr
	}
	return -1
}
