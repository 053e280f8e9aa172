package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Ctx is the machine context a hook sees: the instruction about to execute
// and the disposition controls a repair patch may use to alter execution.
// Dispositions are plain values (not pointers) so that the per-VM reusable
// context stays allocation-free even when a repair fires.
type Ctx struct {
	VM   *VM
	PC   uint32
	Inst isa.Inst

	skip           bool
	hasJump        bool
	hasOverride    bool
	jumpTo         uint32
	overrideTarget uint32
}

// reset clears the dispositions for the next hooked instruction, so the
// per-VM context is reused instead of reconstructed.
func (c *Ctx) reset(pc uint32, in isa.Inst) {
	c.PC = pc
	c.Inst = in
	c.skip = false
	c.hasJump = false
	c.hasOverride = false
}

// Skip suppresses the instruction's execution; control falls through to the
// next instruction. This implements the "skip the call" repair (§2.5.1).
func (c *Ctx) Skip() { c.skip = true }

// Jump transfers control to target instead of executing the instruction.
// This implements the "return immediately from the enclosing procedure"
// repair (after the patch has adjusted the stack pointer).
func (c *Ctx) Jump(target uint32) { c.jumpTo = target; c.hasJump = true }

// OverrideTarget replaces the runtime-computed target of an indirect
// transfer. This implements the one-of enforcement that redirects a
// corrupted function pointer to a previously observed callee.
func (c *Ctx) OverrideTarget(target uint32) { c.overrideTarget = target; c.hasOverride = true }

// Reg reads a register.
func (c *Ctx) Reg(r isa.Reg) uint32 { return c.VM.CPU.Regs[r] }

// SetReg writes a register.
func (c *Ctx) SetReg(r isa.Reg, v uint32) { c.VM.CPU.Regs[r] = v }

// EffAddr returns the memory address the current instruction computes:
// B + X<<Scale + Imm for memory-operand instructions, ESP for RET/POP.
func (c *Ctx) EffAddr() uint32 { return c.VM.effAddr(&c.Inst) }

// TransferTarget computes the target of the current indirect control
// transfer as the interpreter would, honouring any override already set.
func (c *Ctx) TransferTarget() (uint32, error) {
	if c.hasOverride {
		return c.overrideTarget, nil
	}
	return c.VM.computeTarget(&c.Inst)
}

// EvalSlot reads the current value of slot index si of the instruction.
// It allocates nothing unless it fails: checking patches call it on every
// execution of a checked instruction.
func (c *Ctx) EvalSlot(si int) (uint32, error) {
	spec, ok := isa.Slot(c.Inst, si)
	if !ok {
		return 0, fmt.Errorf("vm: slot %d out of range for %s", si, c.Inst)
	}
	switch spec.Kind {
	case isa.SlotRegA, isa.SlotRegB, isa.SlotRegX:
		return c.VM.CPU.Regs[spec.Reg], nil
	case isa.SlotAddr:
		return c.VM.effAddr(&c.Inst), nil
	case isa.SlotMemVal:
		// The observed value has the instruction's access width: a byte
		// load's operand is one byte, not the surrounding word.
		if c.Inst.Op == isa.LOADB {
			b, err := c.VM.Mem.Read8(c.VM.effAddr(&c.Inst))
			return uint32(b), err
		}
		return c.VM.Mem.Read32(c.VM.effAddr(&c.Inst))
	}
	return 0, fmt.Errorf("vm: unknown slot kind %v", spec.Kind)
}

// SetSlot enforces a value on slot index si before the instruction
// executes: registers are written directly; memory-value slots are written
// through the computed address so the instruction reads the enforced value.
// For the target slot of an indirect transfer, the transfer is redirected
// without mutating application memory.
func (c *Ctx) SetSlot(si int, val uint32) error {
	spec, ok := isa.Slot(c.Inst, si)
	if !ok {
		return fmt.Errorf("vm: slot %d out of range for %s", si, c.Inst)
	}
	switch spec.Kind {
	case isa.SlotRegA, isa.SlotRegB, isa.SlotRegX:
		c.VM.CPU.Regs[spec.Reg] = val
		return nil
	case isa.SlotMemVal:
		if isa.TargetSlot(c.Inst) == si {
			c.OverrideTarget(val)
			return nil
		}
		if c.Inst.Op == isa.LOADB {
			return c.VM.Mem.Write8(c.VM.effAddr(&c.Inst), byte(val))
		}
		return c.VM.Mem.Write32(c.VM.effAddr(&c.Inst), val)
	}
	return fmt.Errorf("vm: slot %v is not settable", spec.Kind)
}

func (v *VM) effAddr(in *isa.Inst) uint32 {
	switch in.Op {
	case isa.RET, isa.POP:
		return v.CPU.Regs[isa.ESP]
	}
	a := v.CPU.Regs[in.B] + uint32(in.Imm)
	if in.X.Valid() {
		a += v.CPU.Regs[in.X] << in.Scale
	}
	return a
}

// computeTarget evaluates the destination of an indirect transfer without
// executing it. Run transfers there; hooks (Memory Firewall, repair
// patches) read it through Ctx.TransferTarget.
func (v *VM) computeTarget(in *isa.Inst) (uint32, error) {
	switch in.Op {
	case isa.JMPR, isa.CALLR:
		return v.CPU.Regs[in.A], nil
	case isa.CALLM:
		return v.Mem.Read32(v.effAddr(in))
	case isa.RET:
		return v.Mem.Read32(v.CPU.Regs[isa.ESP])
	}
	return 0, fmt.Errorf("vm: %s is not an indirect transfer", in.Op)
}

func (v *VM) push(val uint32) error {
	v.CPU.Regs[isa.ESP] -= 4
	return v.Mem.Write32(v.CPU.Regs[isa.ESP], val)
}

func (v *VM) pop() (uint32, error) {
	val, err := v.Mem.Read32(v.CPU.Regs[isa.ESP])
	if err != nil {
		return 0, err
	}
	v.CPU.Regs[isa.ESP] += 4
	return val, nil
}

func (v *VM) setCmpFlags(a, b uint32) {
	r := a - b
	v.CPU.Flags.Z = r == 0
	v.CPU.Flags.S = int32(r) < 0
	v.CPU.Flags.C = a < b
	v.CPU.Flags.O = (a^b)&(a^r)&0x8000_0000 != 0
}

func (v *VM) condHolds(op isa.Op) bool {
	f := v.CPU.Flags
	switch op {
	case isa.JE:
		return f.Z
	case isa.JNE:
		return !f.Z
	case isa.JL:
		return f.S != f.O
	case isa.JLE:
		return f.Z || f.S != f.O
	case isa.JG:
		return !f.Z && f.S == f.O
	case isa.JGE:
		return f.S == f.O
	case isa.JB:
		return f.C
	case isa.JBE:
		return f.C || f.Z
	case isa.JA:
		return !f.C && !f.Z
	case isa.JAE:
		return !f.C
	}
	return false
}

// errDivZero is the arithmetic fault DIVRR/MODRR raise on a zero divisor.
// Unguarded it terminates the run as a crash; monitor.FaultGuard checks
// the divisor first and converts the would-be fault into a monitored
// failure with stack provenance.
var errDivZero = errors.New("integer divide by zero")

// errHalt is the crash a HALT instruction raises.
var errHalt = errors.New("halt instruction")

// Run executes until normal exit, monitor-detected failure, crash, or the
// step limit (treated as a hang crash). It is the machine's one
// interpreter: each opcode's semantics are written once, in its switch or
// in a helper the switch calls.
//
// The outer loop works a basic block at a time: the hang watch, then
// dispatch, which records the coverage edge and follows (or fills) the
// predecessor's successor link. The inner loop runs the block's
// instructions. For each one it checks the step limit and the snapshot
// sink, runs the instruction's hook chain on the reusable hookCtx, then
// executes the opcode. decodeBlock ends every block at its first
// terminator, so only a block's last instruction sets the successor pc
// and no instruction is tested for being a terminator.
func (v *VM) Run() RunResult {
	// A reused machine must not leak dispatch state between runs: the
	// entry edge of every run has From == 0 (the coverage.go Edge
	// contract).
	v.lastBlock = 0
	regs := &v.CPU.Regs
	ctx := &v.hookCtx
	pc := v.CPU.PC
	var prev *Block
blocks:
	for {
		if v.hangBudget != 0 && v.steps >= v.hangBudget {
			return v.failed(v.hangFail(pc, v.steps))
		}
		b, err := v.dispatch(prev, pc)
		if err != nil {
			return v.crashed(pc, err.Error())
		}
		prev = b
		for i := range b.Insts {
			in := &b.Insts[i]
			addr := b.Addrs[i]
			v.CPU.PC = addr
			if v.steps >= v.maxSteps {
				return v.crashed(addr, "step limit exceeded (hang)")
			}
			if v.snapSink != nil {
				v.maybeSnapshot()
			}
			v.steps++
			next := addr + isa.InstSize
			// ctx keeps the dispositions of the last hooked instruction,
			// so an indirect transfer reads its override only when a hook
			// ran on this one.
			override := false
			if b.hooks != nil && len(b.hooks[i]) != 0 {
				ctx.reset(addr, *in)
				for _, he := range b.hooks[i] {
					v.hookRuns++
					if err := he.h(ctx); err != nil {
						if f, ok := err.(*Failure); ok {
							return v.failed(f)
						}
						return v.crashed(addr, err.Error())
					}
					// A hook that diverts or suppresses the instruction
					// replaces it entirely: later hooks (monitors, tracing)
					// must not observe or validate an instruction that
					// will not execute.
					if ctx.hasJump || ctx.skip {
						break
					}
				}
				if ctx.hasJump {
					pc = ctx.jumpTo
					continue blocks
				}
				if ctx.skip {
					pc = next
					continue
				}
				override = ctx.hasOverride
			}

			switch in.Op {
			case isa.NOP:
			case isa.HALT:
				err = errHalt
			case isa.MOVRI:
				regs[in.A] = uint32(in.Imm)
			case isa.MOVRR:
				regs[in.A] = regs[in.B]
			case isa.LOAD:
				var val uint32
				if val, err = v.Mem.Read32(v.effAddr(in)); err == nil {
					regs[in.A] = val
				}
			case isa.LOADB:
				var val byte
				if val, err = v.Mem.Read8(v.effAddr(in)); err == nil {
					regs[in.A] = uint32(val)
				}
			case isa.LOADA:
				a := v.effAddr(in)
				if a&3 != 0 {
					err = fmt.Errorf("unaligned 32-bit load at %#x", a)
					break
				}
				var val uint32
				if val, err = v.Mem.Read32(a); err == nil {
					regs[in.A] = val
				}
			case isa.STORE:
				err = v.Mem.Write32(v.effAddr(in), regs[in.A])
			case isa.STOREB:
				err = v.Mem.Write8(v.effAddr(in), byte(regs[in.A]))
			case isa.LEA:
				regs[in.A] = v.effAddr(in)
			case isa.ADDRR:
				regs[in.A] += regs[in.B]
			case isa.ADDRI:
				regs[in.A] += uint32(in.Imm)
			case isa.SUBRR:
				regs[in.A] -= regs[in.B]
			case isa.SUBRI:
				regs[in.A] -= uint32(in.Imm)
			case isa.MULRR:
				regs[in.A] *= regs[in.B]
			case isa.MULRI:
				regs[in.A] *= uint32(in.Imm)
			case isa.DIVRR:
				if regs[in.B] == 0 {
					err = errDivZero
					break
				}
				regs[in.A] = uint32(int32(regs[in.A]) / int32(regs[in.B]))
			case isa.MODRR:
				if regs[in.B] == 0 {
					err = errDivZero
					break
				}
				regs[in.A] = uint32(int32(regs[in.A]) % int32(regs[in.B]))
			case isa.ANDRR:
				regs[in.A] &= regs[in.B]
			case isa.ANDRI:
				regs[in.A] &= uint32(in.Imm)
			case isa.ORRR:
				regs[in.A] |= regs[in.B]
			case isa.ORRI:
				regs[in.A] |= uint32(in.Imm)
			case isa.XORRR:
				regs[in.A] ^= regs[in.B]
			case isa.XORRI:
				regs[in.A] ^= uint32(in.Imm)
			case isa.SHLRI:
				regs[in.A] <<= uint32(in.Imm) & 31
			case isa.SHRRI:
				regs[in.A] >>= uint32(in.Imm) & 31
			case isa.SARRI:
				regs[in.A] = uint32(int32(regs[in.A]) >> (uint32(in.Imm) & 31))
			case isa.SEXTB:
				regs[in.A] = uint32(int32(int8(regs[in.A])))
			case isa.CMPRR:
				v.setCmpFlags(regs[in.A], regs[in.B])
			case isa.CMPRI:
				v.setCmpFlags(regs[in.A], uint32(in.Imm))
			case isa.PUSH:
				err = v.push(regs[in.A])
			case isa.PUSHI:
				err = v.push(uint32(in.Imm))
			case isa.POP:
				var val uint32
				if val, err = v.pop(); err == nil {
					regs[in.A] = val
				}
			case isa.COPYB:
				err = v.copyBlock()

			// Terminators: each sets the successor pc.
			case isa.JMP:
				pc = next + uint32(in.Imm)
			case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JBE, isa.JA, isa.JAE:
				pc = next
				if v.condHolds(in.Op) {
					pc += uint32(in.Imm)
				}
			case isa.CALL:
				err = v.push(next)
				pc = next + uint32(in.Imm)
			case isa.JMPR, isa.CALLR, isa.CALLM, isa.RET:
				t := ctx.overrideTarget
				if !override {
					if t, err = v.computeTarget(in); err != nil {
						break
					}
				}
				switch in.Op {
				case isa.CALLR, isa.CALLM:
					err = v.push(next)
				case isa.RET:
					regs[isa.ESP] += 4
				}
				pc = t
			case isa.SYS:
				if in.Imm == isa.SysExit {
					return v.result(OutcomeExit, regs[isa.EAX], nil, nil)
				}
				err = v.syscall(in.Imm)
				pc = next
			default:
				err = fmt.Errorf("unimplemented opcode %s", in.Op)
			}

			if err != nil {
				// A fault: continue at a registered exception handler, or
				// end the run.
				target, f, handled := v.dispatchException(addr, err)
				switch {
				case !handled:
					return v.crashed(addr, err.Error())
				case f != nil:
					return v.failed(f)
				}
				pc = target
				continue blocks
			}
		}
	}
}

// failed ends the run with a monitor-detected failure, attaching the shadow
// stack's snapshot if the monitor supplied none.
func (v *VM) failed(f *Failure) RunResult {
	if f.Stack == nil {
		f.Stack = v.snapshotStack()
	}
	return v.result(OutcomeFailure, 0, f, nil)
}

// crashed ends the run with a crash no monitor caught.
func (v *VM) crashed(pc uint32, reason string) RunResult {
	return v.result(OutcomeCrash, 0, nil, &Crash{PC: pc, Reason: reason})
}

// copyBlock executes COPYB page-run-at-a-time while preserving the
// byte-at-a-time semantics it replaces: registers advance per chunk and a
// fault mid-copy leaves the partial-progress state visible, exactly like
// an interrupted rep movsb; every copied byte still counts one step, and
// the step limit interrupts the copy at the same byte it always did.
// Chunks never cross a page boundary, never exceed the remaining step
// budget, and — when the destination chases the source upward — never
// exceed the src→dst distance, so a bulk copy re-reads previously written
// bytes on the next chunk just as the byte loop re-read them one at a
// time (the classic rep-movsb pattern-fill).
func (v *VM) copyBlock() error {
	regs := &v.CPU.Regs
	for regs[isa.ECX] != 0 {
		if v.steps >= v.maxSteps {
			return fmt.Errorf("step limit exceeded during block copy")
		}
		src, dst := regs[isa.ESI], regs[isa.EDI]
		run := regs[isa.ECX]
		if left := v.maxSteps - v.steps; uint64(run) > left {
			run = uint32(left)
		}
		if r := mem.PageSize - src%mem.PageSize; run > r {
			run = r
		}
		if r := mem.PageSize - dst%mem.PageSize; run > r {
			run = r
		}
		if dist := dst - src; dist != 0 && dist < run {
			run = dist
		}
		// Fault order matches the byte loop: the read is attempted first,
		// and the faulting byte's step is already counted when it faults.
		sp, err := v.Mem.ReadRun(src, run)
		if err != nil {
			v.steps++
			return err
		}
		dp, err := v.Mem.WriteRun(dst, run)
		if err != nil {
			v.steps++
			return err
		}
		copy(dp, sp)
		v.steps += uint64(run)
		regs[isa.ESI] += run
		regs[isa.EDI] += run
		regs[isa.ECX] -= run
	}
	return nil
}

func (v *VM) syscall(num int32) error {
	regs := &v.CPU.Regs
	switch num {
	case isa.SysAlloc:
		addr, err := v.Heap.Alloc(regs[isa.EAX])
		if err != nil {
			return err
		}
		regs[isa.EAX] = addr
	case isa.SysFree:
		return v.Heap.Free(regs[isa.EAX])
	case isa.SysRealloc:
		addr, err := v.Heap.Realloc(regs[isa.EAX], regs[isa.ECX])
		if err != nil {
			return err
		}
		regs[isa.EAX] = addr
	case isa.SysRead:
		max := int(regs[isa.ECX])
		n := len(v.input) - v.inPos
		if n > max {
			n = max
		}
		if n > 0 {
			if err := v.Mem.WriteBytes(regs[isa.EAX], v.input[v.inPos:v.inPos+n]); err != nil {
				return err
			}
			v.inPos += n
		}
		regs[isa.EAX] = uint32(n)
	case isa.SysWrite:
		data, err := v.Mem.ReadBytes(regs[isa.EAX], regs[isa.ECX])
		if err != nil {
			return err
		}
		v.output = append(v.output, data...)
	case isa.SysInAvail:
		regs[isa.EAX] = uint32(len(v.input) - v.inPos)
	case isa.SysSetEH:
		v.ehSlot = regs[isa.EAX]
	default:
		return fmt.Errorf("unknown syscall %d", num)
	}
	return nil
}

// dispatchException implements the SysSetEH fault model: when application
// semantics hit a memory fault and a handler record is registered, control
// transfers to the handler address stored in that record. The record lives
// in application memory (conventionally on the stack), so corruption can
// redirect the dispatch — which is why the transfer is submitted to the
// registered validator (Memory Firewall) first.
//
// Returns (target, nil, true) to continue execution at the handler,
// (0, failure, true) when the validator rejects the transfer, and
// (0, nil, false) when the fault is unhandled (ordinary crash).
func (v *VM) dispatchException(pc uint32, execErr error) (uint32, *Failure, bool) {
	var fault *mem.Fault
	if !errors.As(execErr, &fault) {
		return 0, nil, false
	}
	if v.ehSlot == 0 || v.ehDispatched {
		return 0, nil, false
	}
	v.ehDispatched = true // one dispatch per run: a faulting handler crashes
	handler, err := v.Mem.Read32(v.ehSlot)
	if err != nil {
		return 0, nil, false
	}
	if v.validator != nil {
		if f := v.validator(pc, handler); f != nil {
			return 0, f, true
		}
	}
	if !v.InCode(handler) {
		// No firewall and the handler points at injected bytes: on real
		// hardware the attacker's code would now run. The simulated
		// machine cannot execute non-code, so the compromise manifests
		// as an unhandled crash.
		return 0, nil, false
	}
	return handler, nil, true
}
