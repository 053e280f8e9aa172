package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/isa"
)

// overwriteProgram stores the encoding of `MOVRI eax, 42` over the not yet
// executed first instruction at "slot" (originally `MOVRI eax, 7`) and then
// jumps there. With input available it overwrites first; without, it jumps
// straight to the original code.
func overwriteProgram(t *testing.T) (*image.Image, map[string]uint32) {
	t.Helper()
	enc := isa.Inst{Op: isa.MOVRI, A: isa.EAX, X: isa.NoReg, Imm: 42}.Encode()
	return buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.Sys(isa.SysInAvail)
		a.CmpRI(isa.EAX, 0)
		a.Je("slot")
		a.MovLabel(isa.ECX, "slot")
		a.MovRI(isa.EAX, int32(binary.LittleEndian.Uint32(enc[:4])))
		a.Store(asm.M(isa.ECX, 0), isa.EAX)
		a.MovRI(isa.EAX, int32(binary.LittleEndian.Uint32(enc[4:])))
		a.Label("stored")
		a.Store(asm.M(isa.ECX, 4), isa.EAX)
		a.Jmp("slot")
		a.Label("slot")
		a.MovRI(isa.EAX, 7)
		a.Sys(isa.SysExit)
	})
}

func mustNew(t *testing.T, cfg Config) *VM {
	t.Helper()
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStoredInstructionRuns: a guest that stores a new instruction over
// code it has not yet run executes the stored instruction, and the next
// machine on the same image still runs the original.
func TestStoredInstructionRuns(t *testing.T) {
	im, _ := overwriteProgram(t)
	patched := mustNew(t, Config{Image: im, Input: []byte("x")})
	if res := patched.Run(); res.Outcome != OutcomeExit || res.ExitCode != 42 {
		t.Fatalf("overwriting run: %+v, want exit 42", res)
	}
	if got := patched.GuestDecodes(); got != 1 {
		t.Errorf("overwriting run decoded %d blocks from guest memory, want 1 (the overwritten slot)", got)
	}
	fresh := mustNew(t, Config{Image: im})
	if res := fresh.Run(); res.Outcome != OutcomeExit || res.ExitCode != 7 {
		t.Fatalf("second machine: %+v, want the original code's exit 7", res)
	}
	if got := fresh.GuestDecodes(); got != 0 {
		t.Errorf("second machine decoded %d blocks from guest memory, want 0", got)
	}
}

// TestUnalignedJumpDecodesGuestBytes: an indirect jump into the middle of
// an instruction slot decodes the straddling bytes from guest memory, and
// an undecodable straddle crashes with the guest-decode reason.
func TestUnalignedJumpDecodesGuestBytes(t *testing.T) {
	exit := isa.Inst{Op: isa.SYS, X: isa.NoReg, Imm: isa.SysExit}.Encode()
	im, labels := buildImage(t, func(a *asm.Assembler) {
		a.Label("main")
		a.MovRI(isa.EAX, 5)
		a.MovRR(isa.ECX, isa.EDX)
		a.JmpR(isa.ECX)
		a.Word(0) // the next label starts mid-slot
		a.Label("odd")
		a.Bytes(exit[:])
		a.Label("bad")
		a.Bytes([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0})
	})
	if labels["odd"]%isa.InstSize == 0 || labels["bad"]%isa.InstSize == 0 {
		t.Fatalf("labels odd=%#x bad=%#x are aligned", labels["odd"], labels["bad"])
	}
	for _, tc := range []struct {
		label string
		check func(RunResult) error
	}{
		{"odd", func(res RunResult) error {
			if res.Outcome != OutcomeExit || res.ExitCode != 5 {
				return fmt.Errorf("got %+v, want exit 5", res)
			}
			return nil
		}},
		{"bad", func(res RunResult) error {
			want := fmt.Sprintf("undecodable instruction at %#x: isa: invalid opcode 255", labels["bad"])
			if res.Outcome != OutcomeCrash || res.Crash.Reason != want || res.Crash.PC != labels["bad"] {
				return fmt.Errorf("got %+v, want crash %q", res.Crash, want)
			}
			return nil
		}},
	} {
		v := mustNew(t, Config{Image: im})
		v.CPU.Regs[isa.EDX] = labels[tc.label]
		if err := tc.check(v.Run()); err != nil {
			t.Errorf("jump to %s: %v", tc.label, err)
		}
		if got := v.GuestDecodes(); got != 1 {
			t.Errorf("jump to %s: %d guest decodes, want 1", tc.label, got)
		}
	}
}

// TestRestoreRunsOverwrittenCode: restoring a snapshot taken after the
// guest overwrote a code slot runs the overwritten bytes, even on a machine
// whose cache held the original block.
func TestRestoreRunsOverwrittenCode(t *testing.T) {
	im, labels := overwriteProgram(t)
	var snap *Snapshot
	recorder := mustNew(t, Config{Image: im, Input: []byte("x"), SnapshotInterval: 1, SnapshotSink: func(s *Snapshot) {
		if s.CPU.PC == labels["stored"]+isa.InstSize {
			snap = s
		}
	}})
	if res := recorder.Run(); res.ExitCode != 42 || snap == nil {
		t.Fatalf("recording run: %+v, snapshot taken: %v", res, snap != nil)
	}
	v := mustNew(t, Config{Image: im})
	if res := v.Run(); res.Outcome != OutcomeExit || res.ExitCode != 7 {
		t.Fatalf("original run: %+v, want exit 7", res)
	}
	v.Restore(snap)
	if res := v.Run(); res.Outcome != OutcomeExit || res.ExitCode != 42 {
		t.Fatalf("restored run: %+v, want the overwritten code's exit 42", res)
	}
}

// TestFreshImageConcurrentFirstUse: machines on one fresh image may build
// and share its decode table from several goroutines at once (run with
// -race).
func TestFreshImageConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 4; round++ {
		im, _ := overwriteProgram(t)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < cap(errs); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var input []byte
				want := uint32(7)
				if g%2 == 1 {
					input, want = []byte("x"), 42
				}
				v, err := New(Config{Image: im, Input: input})
				if err != nil {
					errs <- err
					return
				}
				if res := v.Run(); res.Outcome != OutcomeExit || res.ExitCode != want {
					errs <- fmt.Errorf("goroutine %d: %+v, want exit %d", g, res, want)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// guestDecode is the decoder every block used before the image's decode
// table: read each instruction from guest memory through the first block
// terminator.
func guestDecode(v *VM, pc uint32) ([]isa.Inst, error) {
	var insts []isa.Inst
	for addr := pc; ; addr += isa.InstSize {
		if !v.InCode(addr) {
			return nil, fmt.Errorf("instruction fetch outside code region at %#x", addr)
		}
		raw, err := v.Mem.ReadBytes(addr, isa.InstSize)
		if err != nil {
			return nil, fmt.Errorf("instruction fetch fault at %#x", addr)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("undecodable instruction at %#x: %v", addr, err)
		}
		insts = append(insts, in)
		if in.Op.EndsBlock() {
			return insts, nil
		}
	}
}

// TestSharedDecodeMatchesGuestDecode: for every start address around and
// inside random images — aligned or not, with undecodable slots, a partial
// last slot, and some code overwritten in guest memory — decodeBlock
// yields exactly the instructions or the error that decoding from guest
// memory does.
func TestSharedDecodeMatchesGuestDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var code []byte
		for i := 0; i < 48; i++ {
			op := isa.Op(rng.Intn(int(isa.SYS) + 1))
			if rng.Intn(8) == 0 {
				op = 0xFF // undecodable slot
			}
			enc := isa.Inst{Op: op, A: isa.Reg(rng.Intn(isa.NumRegs)), B: isa.Reg(rng.Intn(isa.NumRegs)),
				X: isa.NoReg, Imm: int32(rng.Intn(64))}.Encode()
			code = append(code, enc[:]...)
		}
		code = code[:len(code)-rng.Intn(isa.InstSize)]
		im := &image.Image{Base: 0x1000, Entry: 0x1000, Code: code}
		v := mustNew(t, Config{Image: im})
		if trial%2 == 1 {
			for i := 0; i < 3; i++ {
				addr := im.Base + uint32(rng.Intn(len(code)-4))
				if err := v.Mem.Write32(addr, rng.Uint32()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for pc := im.Base - 2*isa.InstSize; pc < im.End()+2*isa.InstSize; pc++ {
			want, wantErr := guestDecode(v, pc)
			b, err := v.decodeBlock(pc)
			switch {
			case wantErr != nil || err != nil:
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d pc %#x: error %v, want %v", trial, pc, err, wantErr)
				}
			case !reflect.DeepEqual(b.Insts, want):
				t.Fatalf("trial %d pc %#x: insts %v, want %v", trial, pc, b.Insts, want)
			}
		}
	}
}
