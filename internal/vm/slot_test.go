package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestSlotAccessZeroAllocs: reading and enforcing any slot — registers,
// computed addresses, loaded values, the redirected target of an indirect
// call — allocates nothing, so checking and repair hooks stay free on
// every execution of a patched instruction.
func TestSlotAccessZeroAllocs(t *testing.T) {
	im, _ := buildImage(t, func(a *asm.Assembler) { a.Sys(isa.SysExit) })
	v, err := New(Config{Image: im})
	if err != nil {
		t.Fatal(err)
	}
	v.CPU.Regs[isa.EBX] = DefaultStackTop - 256
	v.CPU.Regs[isa.ESI] = 4
	v.CPU.Regs[isa.ESP] = DefaultStackTop - 64
	ctx := &Ctx{VM: v}
	for _, in := range []isa.Inst{
		{Op: isa.LOAD, A: isa.EAX, B: isa.EBX, X: isa.ESI, Scale: 2, Imm: 8},
		{Op: isa.LOADB, A: isa.EAX, B: isa.EBX, X: isa.NoReg},
		{Op: isa.STORE, A: isa.EDX, B: isa.EBX, X: isa.NoReg},
		{Op: isa.CALLM, B: isa.EBX, X: isa.ESI, Scale: 2},
		{Op: isa.ADDRR, A: isa.EAX, B: isa.ECX, X: isa.NoReg},
		{Op: isa.RET, X: isa.NoReg},
		{Op: isa.COPYB, X: isa.NoReg},
	} {
		specs := isa.Slots(in)
		ctx.reset(0x1000, in)
		allocs := testing.AllocsPerRun(100, func() {
			for si, spec := range specs {
				val, err := ctx.EvalSlot(si)
				if err != nil {
					t.Fatalf("%s slot %d: %v", in, si, err)
				}
				if spec.Settable() {
					if err := ctx.SetSlot(si, val); err != nil {
						t.Fatalf("%s slot %d: %v", in, si, err)
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: slot access allocated %.0f times per pass", in, allocs)
		}
	}
}
