package vm

import (
	"math/rand"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
)

// TestRandomCodeNeverPanicsHost: arbitrary bytes loaded as a binary must
// produce a defined outcome (exit, failure, or crash) without panicking
// the host — the robustness a managed execution environment owes its
// operator even for garbage binaries.
func TestRandomCodeNeverPanicsHost(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		code := make([]byte, 64*isa.InstSize)
		rng.Read(code)
		img := &image.Image{Base: 0x1000, Entry: 0x1000, Code: code}
		machine, err := New(Config{Image: img, MaxSteps: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		res := machine.Run()
		switch res.Outcome {
		case OutcomeExit, OutcomeFailure, OutcomeCrash:
		default:
			t.Fatalf("trial %d: undefined outcome %v", trial, res.Outcome)
		}
	}
	// Random bytes almost never decode, so the trials above seldom hand the
	// interpreter a malformed operand. These build every instruction from a
	// defined opcode and a zero reserved byte and leave the register
	// nibbles random — mostly in range, so runs get past their first block.
	nibble := func() isa.Reg {
		if rng.Intn(4) == 0 {
			return isa.Reg(8 + rng.Intn(8))
		}
		return isa.Reg(rng.Intn(isa.NumRegs))
	}
	for trial := 0; trial < 200; trial++ {
		var code []byte
		for i := 0; i < 64; i++ {
			op := isa.Op(rng.Intn(256))
			for !op.Valid() {
				op = isa.Op(rng.Intn(256))
			}
			in := isa.Inst{Op: op, A: nibble(), B: nibble(), X: nibble(),
				Scale: uint8(rng.Intn(4)), Imm: int32(rng.Intn(16)-4) * isa.InstSize}
			enc := in.Encode()
			code = append(code, enc[:]...)
		}
		img := &image.Image{Base: 0x1000, Entry: 0x1000, Code: code}
		machine, err := New(Config{Image: img, MaxSteps: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		res := machine.Run()
		switch res.Outcome {
		case OutcomeExit, OutcomeFailure, OutcomeCrash:
		default:
			t.Fatalf("register trial %d: undefined outcome %v", trial, res.Outcome)
		}
	}
}

// TestRandomValidProgramsBounded: randomly assembled *valid* instructions
// (all operands in range) always terminate within the step budget with a
// defined outcome, and the step accounting is consistent.
func TestRandomValidProgramsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	ops := []isa.Op{
		isa.NOP, isa.MOVRI, isa.MOVRR, isa.ADDRR, isa.ADDRI, isa.SUBRR,
		isa.MULRI, isa.ANDRI, isa.ORRR, isa.XORRR, isa.SHLRI, isa.SARRI,
		isa.SEXTB, isa.CMPRR, isa.CMPRI, isa.PUSH, isa.POP, isa.PUSHI,
		isa.LEA, isa.JMP, isa.JE, isa.JNE,
	}
	for trial := 0; trial < 200; trial++ {
		n := 16 + rng.Intn(48)
		code := make([]byte, 0, (n+1)*isa.InstSize)
		for i := 0; i < n; i++ {
			op := ops[rng.Intn(len(ops))]
			in := isa.Inst{
				Op: op,
				A:  isa.Reg(rng.Intn(isa.NumRegs)),
				B:  isa.Reg(rng.Intn(isa.NumRegs)),
				X:  isa.NoReg,
			}
			switch op {
			case isa.JMP, isa.JE, isa.JNE:
				// Forward-only branches within the program keep it finite.
				remaining := n - i
				in.Imm = int32(rng.Intn(remaining)) * isa.InstSize
			case isa.MOVRI, isa.ADDRI, isa.CMPRI, isa.PUSHI, isa.MULRI, isa.ANDRI:
				in.Imm = int32(rng.Intn(1 << 16))
			case isa.SHLRI, isa.SARRI:
				in.Imm = int32(rng.Intn(32))
			case isa.LEA:
				in.Imm = int32(rng.Intn(64))
			}
			enc := in.Encode()
			code = append(code, enc[:]...)
		}
		halt := isa.Inst{Op: isa.SYS, X: isa.NoReg, Imm: isa.SysExit}.Encode()
		code = append(code, halt[:]...)

		img := &image.Image{Base: 0x1000, Entry: 0x1000, Code: code}
		machine, err := New(Config{Image: img, MaxSteps: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		res := machine.Run()
		if res.Steps == 0 {
			t.Fatalf("trial %d: no steps executed", trial)
		}
		if res.Outcome == OutcomeCrash && res.Crash == nil {
			t.Fatalf("trial %d: crash without detail", trial)
		}
	}
}

// TestRandomProgramsDeterministic: the same random program produces the
// same outcome, step count, and output twice — the determinism that all
// of ClearView's replay-based phases rely on.
func TestRandomProgramsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 50; trial++ {
		code := make([]byte, 48*isa.InstSize)
		rng.Read(code)
		img := &image.Image{Base: 0x1000, Entry: 0x1000, Code: code}
		run := func() RunResult {
			m, err := New(Config{Image: img, MaxSteps: 5_000})
			if err != nil {
				t.Fatal(err)
			}
			return m.Run()
		}
		r1, r2 := run(), run()
		if r1.Outcome != r2.Outcome || r1.Steps != r2.Steps {
			t.Fatalf("trial %d: nondeterministic: %v/%d vs %v/%d",
				trial, r1.Outcome, r1.Steps, r2.Outcome, r2.Steps)
		}
	}
}
