package isa

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: NOP, X: NoReg},
		{Op: MOVRI, A: EAX, X: NoReg, Imm: -42},
		{Op: MOVRR, A: EBX, B: ECX, X: NoReg},
		{Op: LOAD, A: EAX, B: EBP, X: ESI, Scale: 2, Imm: 16},
		{Op: STORE, A: EDX, B: ESP, X: NoReg, Imm: -8},
		{Op: CALLM, B: EAX, X: NoReg, Imm: 4},
		{Op: JMP, X: NoReg, Imm: 0x100},
		{Op: SYS, X: NoReg, Imm: SysAlloc},
		{Op: CMPRI, A: EDI, X: NoReg, Imm: 100000},
	}
	for _, in := range cases {
		enc := in.Encode()
		got, err := Decode(enc[:])
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v want %+v", got, in)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Any structurally valid instruction must survive an encode/decode
	// round trip unchanged.
	f := func(op uint8, a, b, x uint8, scale uint8, imm int32) bool {
		in := Inst{
			Op:    Op(op % uint8(opCount)),
			A:     Reg(a % NumRegs),
			B:     Reg(b % NumRegs),
			X:     Reg(x % NumRegs),
			Scale: scale % 4,
			Imm:   imm,
		}
		enc := in.Encode()
		got, err := Decode(enc[:])
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("invalid opcode accepted")
	}
	if _, err := Decode([]byte{byte(NOP), 0, 0, 0xAB, 0, 0, 0, 0}); err == nil {
		t.Error("nonzero reserved byte accepted")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
	// A-register required but encoded as NoReg.
	bad := Inst{Op: MOVRI, A: NoReg, X: NoReg}.Encode()
	if _, err := Decode(bad[:]); err == nil {
		t.Error("missing A register accepted")
	}
	// Register nibbles 8..14 name no register: rejected wherever the
	// operand is read, accepted where it is ignored.
	for _, tc := range []struct {
		in Inst
		ok bool
	}{
		{Inst{Op: MOVRR, A: 9, B: EAX, X: NoReg}, false},
		{Inst{Op: MOVRR, A: EAX, B: 9, X: NoReg}, false},
		{Inst{Op: ADDRI, A: 14, X: NoReg}, false},
		{Inst{Op: PUSH, A: 8, X: NoReg}, false},
		{Inst{Op: LOAD, A: EAX, B: 12, X: NoReg}, false},
		{Inst{Op: CALLM, B: NoReg, X: NoReg}, false},
		{Inst{Op: MOVRI, A: EAX, B: 9, X: NoReg}, true},
		{Inst{Op: JMP, A: 9, B: 9, X: NoReg}, true},
	} {
		enc := tc.in.Encode()
		if _, err := Decode(enc[:]); (err == nil) != tc.ok {
			t.Errorf("Decode(%+v): err = %v, want accepted = %v", tc.in, err, tc.ok)
		}
	}
}

func TestOpClassification(t *testing.T) {
	indirect := []Op{JMPR, CALLR, CALLM, RET}
	for _, op := range indirect {
		if !op.IsIndirect() {
			t.Errorf("%s should be indirect", op)
		}
		if !op.EndsBlock() {
			t.Errorf("%s should end a block", op)
		}
	}
	direct := []Op{MOVRI, LOAD, STORE, ADDRR, PUSH, POP, LEA}
	for _, op := range direct {
		if op.IsIndirect() {
			t.Errorf("%s should not be indirect", op)
		}
		if op.EndsBlock() {
			t.Errorf("%s should not end a block", op)
		}
	}
	if !CALL.IsCall() || !CALLR.IsCall() || !CALLM.IsCall() {
		t.Error("call forms misclassified")
	}
	if !JE.IsCondBranch() || !JAE.IsCondBranch() || JMP.IsCondBranch() {
		t.Error("conditional branch misclassified")
	}
	if !STORE.IsStore() || !STOREB.IsStore() || LOAD.IsStore() {
		t.Error("store misclassified")
	}
}

func TestSlots(t *testing.T) {
	tests := []struct {
		in   Inst
		want []SlotKind
	}{
		{Inst{Op: LOAD, A: EAX, B: EBP, X: NoReg, Imm: 8},
			[]SlotKind{SlotRegB, SlotAddr, SlotMemVal}},
		{Inst{Op: LOAD, A: EAX, B: EBP, X: ESI, Scale: 2},
			[]SlotKind{SlotRegB, SlotRegX, SlotAddr, SlotMemVal}},
		{Inst{Op: STORE, A: EDX, B: EBX, X: NoReg},
			[]SlotKind{SlotRegA, SlotRegB, SlotAddr}},
		{Inst{Op: CALLM, B: EAX, X: NoReg, Imm: 0},
			[]SlotKind{SlotRegB, SlotAddr, SlotMemVal}},
		{Inst{Op: ADDRR, A: EAX, B: ECX, X: NoReg},
			[]SlotKind{SlotRegA, SlotRegB}},
		{Inst{Op: CMPRI, A: EAX, X: NoReg, Imm: 1},
			[]SlotKind{SlotRegA}},
		{Inst{Op: RET, X: NoReg},
			[]SlotKind{SlotAddr, SlotMemVal}},
		{Inst{Op: MOVRI, A: EAX, X: NoReg, Imm: 1}, nil},
		{Inst{Op: JMP, X: NoReg, Imm: 8}, nil},
	}
	for _, tc := range tests {
		got := Slots(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v want kinds %v", tc.in, got, tc.want)
			continue
		}
		for i, s := range got {
			if s.Kind != tc.want[i] {
				t.Errorf("%s slot %d: got %v want %v", tc.in, i, s.Kind, tc.want[i])
			}
		}
	}
}

func TestTargetSlot(t *testing.T) {
	callm := Inst{Op: CALLM, B: EAX, X: NoReg, Imm: 0}
	ts := TargetSlot(callm)
	if ts < 0 || Slots(callm)[ts].Kind != SlotMemVal {
		t.Errorf("CALLM target slot = %d", ts)
	}
	callr := Inst{Op: CALLR, A: EBX, X: NoReg}
	if ts := TargetSlot(callr); ts != 0 || Slots(callr)[ts].Kind != SlotRegA {
		t.Errorf("CALLR target slot = %d", ts)
	}
	ret := Inst{Op: RET, X: NoReg}
	if ts := TargetSlot(ret); Slots(ret)[ts].Kind != SlotMemVal {
		t.Errorf("RET target slot = %d", ts)
	}
	indexed := Inst{Op: CALLM, B: EAX, X: ESI, Scale: 2}
	if ts := TargetSlot(indexed); ts != 3 || Slots(indexed)[ts].Kind != SlotMemVal {
		t.Errorf("indexed CALLM target slot = %d", ts)
	}
	if ts := TargetSlot(Inst{Op: MOVRI, A: EAX, X: NoReg}); ts != -1 {
		t.Errorf("MOVRI target slot = %d, want -1", ts)
	}
}

func TestSlotSettable(t *testing.T) {
	if (SlotSpec{Kind: SlotAddr}).Settable() {
		t.Error("SlotAddr must not be settable")
	}
	for _, k := range []SlotKind{SlotRegA, SlotRegB, SlotRegX, SlotMemVal} {
		if !(SlotSpec{Kind: k}).Settable() {
			t.Errorf("%v should be settable", k)
		}
	}
}

func TestStringRendering(t *testing.T) {
	in := Inst{Op: LOAD, A: EAX, B: EBP, X: ESI, Scale: 2, Imm: -4}
	if got := in.String(); got != "load eax, [ebp+esi<<2-4]" {
		t.Errorf("String() = %q", got)
	}
	if got := (Inst{Op: RET, X: NoReg}).String(); got != "ret" {
		t.Errorf("ret String() = %q", got)
	}
}

func TestSextBSlotAndCopyBSlots(t *testing.T) {
	sx := Inst{Op: SEXTB, A: ECX, X: NoReg}
	slots := Slots(sx)
	if len(slots) != 1 || slots[0].Kind != SlotRegA || slots[0].Reg != ECX {
		t.Errorf("sextb slots = %v", slots)
	}
	cb := Inst{Op: COPYB, X: NoReg}
	cs := Slots(cb)
	if len(cs) != 3 || cs[0].Reg != ECX || cs[1].Reg != ESI || cs[2].Reg != EDI {
		t.Errorf("copyb slots = %v", cs)
	}
	for _, s := range cs {
		if !s.Settable() {
			t.Errorf("copyb slot %v not settable", s)
		}
	}
	if COPYB.EndsBlock() || COPYB.IsIndirect() || COPYB.IsStore() {
		t.Error("copyb misclassified: plain instruction with implicit operands")
	}
}

// TestSlotAgreesWithSlots: the allocation-free single-slot lookup returns
// exactly Slots(in)[si] for every opcode byte, with and without an index
// register, and rejects every index outside the list.
func TestSlotAgreesWithSlots(t *testing.T) {
	for op := 0; op < 256; op++ {
		for _, x := range []Reg{NoReg, ESI} {
			in := Inst{Op: Op(op), A: EAX, B: EBX, X: x, Scale: 2, Imm: 16}
			specs := Slots(in)
			for si := -1; si <= len(specs)+1; si++ {
				got, ok := Slot(in, si)
				inRange := si >= 0 && si < len(specs)
				if ok != inRange {
					t.Fatalf("%s slot %d: ok = %v, Slots has %d", in, si, ok, len(specs))
				}
				if inRange && got != specs[si] {
					t.Fatalf("%s slot %d: Slot = %v, Slots = %v", in, si, got, specs[si])
				}
			}
		}
	}
}
