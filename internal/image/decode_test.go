package image

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// randomCode encodes n instructions from defined and undefined opcodes,
// then cuts a random partial slot off the end.
func randomCode(rng *rand.Rand, n int) []byte {
	var code []byte
	for i := 0; i < n; i++ {
		op := isa.Op(rng.Intn(int(isa.SYS) + 1))
		if rng.Intn(6) == 0 {
			op = isa.Op(0xF0 + rng.Intn(16))
		}
		enc := isa.Inst{Op: op, A: isa.Reg(rng.Intn(isa.NumRegs)), B: isa.Reg(rng.Intn(isa.NumRegs)),
			X: isa.NoReg, Imm: int32(rng.Uint32())}.Encode()
		code = append(code, enc[:]...)
	}
	return code[:len(code)-rng.Intn(isa.InstSize)]
}

// The three decoders InstAt replaced, each with its own spelling of the
// bounds rule: the ClearView core, the community manager, and the CFG
// tracer.
func coreInstAt(im *Image, pc uint32) (isa.Inst, bool) {
	if !im.Contains(pc) {
		return isa.Inst{}, false
	}
	off := pc - im.Base
	if off+isa.InstSize > uint32(len(im.Code)) {
		return isa.Inst{}, false
	}
	in, err := isa.Decode(im.Code[off : off+isa.InstSize])
	return in, err == nil
}

func managerInstAt(im *Image, pc uint32) (isa.Inst, bool) {
	if !im.Contains(pc) || pc+isa.InstSize > im.End() {
		return isa.Inst{}, false
	}
	in, err := isa.Decode(im.Code[pc-im.Base:])
	return in, err == nil
}

func cfgInstAt(im *Image, pc uint32) (isa.Inst, bool) {
	if !im.Contains(pc) || !im.Contains(pc+isa.InstSize-1) {
		return isa.Inst{}, false
	}
	off := pc - im.Base
	in, err := isa.Decode(im.Code[off : off+isa.InstSize])
	if err != nil {
		return isa.Inst{}, false
	}
	return in, true
}

// TestInstAtMatchesReplacedDecoders: for every pc around and inside random
// images, aligned or not, InstAt returns what each decoder it replaced
// returned.
func TestInstAtMatchesReplacedDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		im := &Image{Base: 0x1000, Entry: 0x1000, Code: randomCode(rng, 1+rng.Intn(40))}
		for pc := im.Base - 2*isa.InstSize; pc < im.End()+2*isa.InstSize; pc++ {
			in, ok := im.InstAt(pc)
			for name, ref := range map[string]func(*Image, uint32) (isa.Inst, bool){
				"core": coreInstAt, "manager": managerInstAt, "cfg": cfgInstAt,
			} {
				if want, wantOK := ref(im, pc); in != want || ok != wantOK {
					t.Fatalf("trial %d pc %#x: InstAt = %v, %v; %s decoder = %v, %v", trial, pc, in, ok, name, want, wantOK)
				}
			}
		}
	}
}

// TestDecodedTable: slot i holds the decode of the i-th whole 8-byte code
// slot; a partial last slot is not covered.
func TestDecodedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := &Image{Base: 0x1000, Entry: 0x1000, Code: randomCode(rng, 30)}
	insts := im.Decoded()
	if want := len(im.Code) / isa.InstSize; len(insts) != want {
		t.Fatalf("table covers %d slots, want %d", len(insts), want)
	}
	for i := range insts {
		in, err := isa.Decode(im.Code[i*isa.InstSize : (i+1)*isa.InstSize])
		if (err == nil) != insts[i].Op.Valid() || (err == nil && in != insts[i]) {
			t.Errorf("slot %d: table %v, decode %v (%v)", i, insts[i], in, err)
		}
	}
}
