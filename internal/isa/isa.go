// Package isa defines the instruction set architecture of the simulated
// 32-bit machine that ClearView protects.
//
// The ISA is deliberately x86-flavoured: eight general-purpose registers
// including a hardware stack pointer (ESP) and frame pointer (EBP), a flags
// register set by CMP, push/pop/call/ret with an in-memory stack, and —
// crucially for ClearView — indirect control transfers through registers
// (CALLR, JMPR) and through memory (CALLM, the vtable-dispatch idiom).
//
// Unlike real x86 the encoding is fixed width (8 bytes per instruction).
// Fixed width keeps the decoder and the symbolic CFG tracer simple without
// changing anything ClearView's algorithms depend on: binaries are still
// stripped (raw bytes, no symbols or procedure boundaries), control flow is
// still discovered dynamically, and operands are still registers and
// computed memory addresses.
//
// Instruction layout (little endian):
//
//	byte 0   opcode
//	byte 1   low nibble: register A   high nibble: register B
//	byte 2   low nibble: index register X (0xF = none)
//	         high nibble: scale shift (address = B + X<<scale + imm)
//	byte 3   reserved (must be zero)
//	byte 4-7 imm32 (signed immediate / displacement / branch offset)
package isa

import "fmt"

// InstSize is the fixed encoded size of every instruction in bytes.
const InstSize = 8

// Reg identifies a general-purpose register.
type Reg uint8

// General-purpose registers. ESP is the hardware stack pointer used
// implicitly by PUSH/POP/CALL/RET.
const (
	EAX Reg = 0
	ECX Reg = 1
	EDX Reg = 2
	EBX Reg = 3
	ESP Reg = 4
	EBP Reg = 5
	ESI Reg = 6
	EDI Reg = 7

	// NoReg marks an absent index register in a memory operand.
	NoReg Reg = 0xF
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 8

var regNames = [...]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// String returns the conventional lower-case register mnemonic.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	if r == NoReg {
		return "none"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether r names an actual register (not NoReg).
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an opcode.
type Op uint8

// Opcodes. The comment after each opcode gives its operational semantics
// in terms of the encoded fields A, B, X, S (scale shift) and Imm.
const (
	NOP  Op = iota // no operation
	HALT           // stop the machine (normal exit only via SYS exit)

	MOVRI // A = Imm
	MOVRR // A = B
	LOAD  // A = mem32[B + X<<S + Imm]
	STORE // mem32[B + X<<S + Imm] = A
	LOADB // A = zero-extend mem8[B + X<<S + Imm]
	STOREB
	// mem8[B + X<<S + Imm] = low byte of A
	LEA // A = B + X<<S + Imm

	ADDRR // A += B
	ADDRI // A += Imm
	SUBRR // A -= B
	SUBRI // A -= Imm
	MULRR // A *= B
	MULRI // A *= Imm
	ANDRR // A &= B
	ANDRI // A &= Imm
	ORRR  // A |= B
	ORRI  // A |= Imm
	XORRR // A ^= B
	XORRI // A ^= Imm
	SHLRI // A <<= Imm (mod 32)
	SHRRI // A >>= Imm logical (mod 32)
	SARRI // A >>= Imm arithmetic (mod 32)
	SEXTB // A = sign-extend low byte of A (the movsx idiom)

	CMPRR // flags = compare(A, B)
	CMPRI // flags = compare(A, Imm)

	JMP  // pc = next + Imm
	JMPR // pc = A (indirect)
	JE   // conditional relative branches on flags
	JNE
	JL  // signed <
	JLE // signed <=
	JG  // signed >
	JGE // signed >=
	JB  // unsigned <
	JBE // unsigned <=
	JA  // unsigned >
	JAE // unsigned >=

	CALL  // push next; pc = next + Imm
	CALLR // push next; pc = A (indirect through register)
	CALLM // push next; pc = mem32[B + X<<S + Imm] (indirect through memory)
	RET   // pc = pop()

	PUSH  // push A
	PUSHI // push Imm
	POP   // A = pop()

	SYS // system call; Imm selects the service (see Sys* constants)

	// COPYB is a block byte copy with implicit operands, modelled on the
	// x86 "rep movsb" idiom: while ECX != 0 { mem8[EDI] = mem8[ESI];
	// EDI++; ESI++; ECX-- }. Like rep movsb it is a single instruction
	// whose observable operands include the count register — which is why
	// ClearView's less-than invariants relating a copy length to a buffer
	// size live in the same basic block as the copy itself.
	COPYB

	// DIVRR and MODRR are signed division and remainder (A /= B, A %= B).
	// Like the x86 idiv they raise an arithmetic fault when the divisor is
	// zero — the fault class monitor.FaultGuard converts into a monitored
	// failure. The most-negative-dividend / -1 case wraps (no fault).
	DIVRR
	MODRR
	// LOADA is a 32-bit load that requires its computed address to be
	// 4-aligned (the word-walk idiom of SIMD/RISC-style table scans); a
	// misaligned address raises an alignment fault instead of loading.
	// The ordinary LOAD keeps x86's tolerance of unaligned access.
	LOADA

	opCount // sentinel; must remain last
)

// System call numbers carried in the Imm field of SYS.
const (
	SysExit    = 0 // exit(status=EAX); ends the run normally
	SysAlloc   = 1 // EAX = alloc(size=EAX)
	SysFree    = 2 // free(ptr=EAX)
	SysRealloc = 3 // EAX = realloc(ptr=EAX, size=ECX)
	SysRead    = 4 // EAX = read(buf=EAX, max=ECX) from the input stream
	SysWrite   = 5 // write(buf=EAX, len=ECX) to the display output
	SysInAvail = 6 // EAX = number of input bytes remaining
	// SysSetEH registers the address (EAX) of an exception-handler record
	// slot, emulating Windows structured exception handling: on a memory
	// fault the machine dispatches to the handler address stored in that
	// slot. Because the record lives on the application stack, a stack
	// overflow can overwrite it — the code-injection vector of Bugzilla
	// 296134 that Memory Firewall intercepts at dispatch time.
	SysSetEH = 7
)

var opNames = [...]string{
	NOP: "nop", HALT: "halt",
	MOVRI: "movri", MOVRR: "movrr",
	LOAD: "load", STORE: "store", LOADB: "loadb", STOREB: "storeb", LEA: "lea",
	ADDRR: "addrr", ADDRI: "addri", SUBRR: "subrr", SUBRI: "subri",
	MULRR: "mulrr", MULRI: "mulri", ANDRR: "andrr", ANDRI: "andri",
	ORRR: "orrr", ORRI: "orri", XORRR: "xorrr", XORRI: "xorri",
	SHLRI: "shlri", SHRRI: "shrri", SARRI: "sarri", SEXTB: "sextb",
	CMPRR: "cmprr", CMPRI: "cmpri",
	JMP: "jmp", JMPR: "jmpr",
	JE: "je", JNE: "jne", JL: "jl", JLE: "jle", JG: "jg", JGE: "jge",
	JB: "jb", JBE: "jbe", JA: "ja", JAE: "jae",
	CALL: "call", CALLR: "callr", CALLM: "callm", RET: "ret",
	PUSH: "push", PUSHI: "pushi", POP: "pop",
	SYS: "sys", COPYB: "copyb",
	DIVRR: "divrr", MODRR: "modrr", LOADA: "loada",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opCount }

// Inst is one decoded instruction.
type Inst struct {
	Op    Op
	A     Reg   // primary register operand
	B     Reg   // secondary register operand / memory base
	X     Reg   // memory index register, NoReg if absent
	Scale uint8 // shift applied to X (address = B + X<<Scale + Imm)
	Imm   int32 // immediate / displacement / relative branch offset
}

// IsCondBranch reports whether the opcode is a conditional relative branch.
func (o Op) IsCondBranch() bool { return o >= JE && o <= JAE }

// IsCall reports whether the opcode is any call form.
func (o Op) IsCall() bool { return o == CALL || o == CALLR || o == CALLM }

// IsIndirect reports whether the opcode transfers control to a
// runtime-computed target (the transfers Memory Firewall validates).
// RET is indirect: its target comes from the (possibly corrupted) stack.
func (o Op) IsIndirect() bool {
	return o == JMPR || o == CALLR || o == CALLM || o == RET
}

// EndsBlock reports whether the opcode terminates a basic block. Calls end
// blocks (as in DynamoRIO) with a fall-through successor at the return
// point. HALT and SYS exit the block because SYS may terminate the run.
func (o Op) EndsBlock() bool {
	switch o {
	case JMP, JMPR, RET, HALT, SYS:
		return true
	}
	return o.IsCondBranch() || o.IsCall()
}

// HasMemOperand reports whether the instruction computes a memory address
// from B + X<<Scale + Imm.
func (o Op) HasMemOperand() bool {
	switch o {
	case LOAD, STORE, LOADB, STOREB, LEA, CALLM, LOADA:
		return true
	}
	return false
}

// Faultable reports whether the instruction can raise an arithmetic or
// alignment fault from its operand values alone (the faults FaultGuard
// intercepts): division by zero and misaligned word loads.
func (o Op) Faultable() bool { return o == DIVRR || o == MODRR || o == LOADA }

// IsStore reports whether the opcode writes memory through its computed
// address (the writes Heap Guard instruments).
func (o Op) IsStore() bool { return o == STORE || o == STOREB }

// Encode packs the instruction into its 8-byte representation.
func (in Inst) Encode() [InstSize]byte {
	var b [InstSize]byte
	b[0] = byte(in.Op)
	b[1] = byte(in.A&0xF) | byte(in.B&0xF)<<4
	b[2] = byte(in.X&0xF) | (in.Scale&0xF)<<4
	b[3] = 0
	u := uint32(in.Imm)
	b[4] = byte(u)
	b[5] = byte(u >> 8)
	b[6] = byte(u >> 16)
	b[7] = byte(u >> 24)
	return b
}

// Decode unpacks one instruction from an 8-byte slice. It returns an error
// for undefined opcodes or malformed register fields so that the CFG tracer
// can stop at garbage bytes instead of mis-tracing.
func Decode(b []byte) (Inst, error) {
	if len(b) < InstSize {
		return Inst{}, fmt.Errorf("isa: short instruction: %d bytes", len(b))
	}
	in := Inst{
		Op:    Op(b[0]),
		A:     Reg(b[1] & 0xF),
		B:     Reg(b[1] >> 4),
		X:     Reg(b[2] & 0xF),
		Scale: b[2] >> 4,
		Imm:   int32(uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24),
	}
	if !in.Op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d", b[0])
	}
	if b[3] != 0 {
		return Inst{}, fmt.Errorf("isa: nonzero reserved byte %#x", b[3])
	}
	// A register nibble outside the register file (8..14, or NoReg where
	// the operand is required) is malformed: the interpreter indexes the
	// register file with it.
	if !in.A.Valid() && usesA(in.Op) {
		return Inst{}, fmt.Errorf("isa: %s: A operand %s is not a register", in.Op, in.A)
	}
	if !in.B.Valid() && usesB(in.Op) {
		return Inst{}, fmt.Errorf("isa: %s: B operand %s is not a register", in.Op, in.B)
	}
	return in, nil
}

func usesA(o Op) bool {
	switch o {
	case NOP, HALT, JMP, CALL, RET, PUSHI, SYS, CALLM, COPYB:
		return false
	}
	return !o.IsCondBranch()
}

// usesB reports whether the opcode reads register B: the register-register
// forms, and every memory operand (B is its base).
func usesB(o Op) bool {
	switch o {
	case MOVRR, ADDRR, SUBRR, MULRR, ANDRR, ORRR, XORRR, CMPRR, DIVRR, MODRR:
		return true
	}
	return o.HasMemOperand()
}

// String renders the instruction in a readable assembly-like syntax.
func (in Inst) String() string {
	mem := func() string {
		s := fmt.Sprintf("[%s", in.B)
		if in.X.Valid() {
			s += fmt.Sprintf("+%s<<%d", in.X, in.Scale)
		}
		if in.Imm != 0 {
			s += fmt.Sprintf("%+d", in.Imm)
		}
		return s + "]"
	}
	switch in.Op {
	case NOP, HALT, RET:
		return in.Op.String()
	case MOVRI, ADDRI, SUBRI, MULRI, ANDRI, ORRI, XORRI, SHLRI, SHRRI, SARRI, CMPRI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.A, in.Imm)
	case SEXTB:
		return fmt.Sprintf("%s %s", in.Op, in.A)
	case MOVRR, ADDRR, SUBRR, MULRR, ANDRR, ORRR, XORRR, CMPRR, DIVRR, MODRR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.A, in.B)
	case LOAD, LOADB, LEA, LOADA:
		return fmt.Sprintf("%s %s, %s", in.Op, in.A, mem())
	case STORE, STOREB:
		return fmt.Sprintf("%s %s, %s", in.Op, mem(), in.A)
	case JMP, CALL:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case JMPR, CALLR, PUSH, POP:
		return fmt.Sprintf("%s %s", in.Op, in.A)
	case CALLM:
		return fmt.Sprintf("%s %s", in.Op, mem())
	case PUSHI:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case SYS:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case COPYB:
		return "copyb [edi], [esi], ecx"
	}
	if in.Op.IsCondBranch() {
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	}
	return fmt.Sprintf("%s ?", in.Op)
}
