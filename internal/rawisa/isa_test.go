package rawisa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   Inst
		want int
	}{
		{Inst{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, 1},
		{Inst{Op: LUI, Rd: 1, Imm: 0x1234}, 1},
		{Inst{Op: EXITI, Imm: 0x8048000}, 2},
		{Inst{Op: CHAIN, Imm: 0x8048000}, 2},
		{Inst{Op: J, Imm: 100}, 1},
	}
	for _, c := range cases {
		if got := c.in.Words(); got != c.want {
			t.Errorf("%v.Words() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestGuestPCSurvivesImm checks that a guest PC above 2^31 round-trips
// through the signed Imm field of an exit.
func TestGuestPCSurvivesImm(t *testing.T) {
	pc := uint32(0xc0001234)
	in := Inst{Op: EXITI, Imm: int32(pc)}
	if in.GuestPC() != pc || !strings.Contains(in.String(), "0xc0001234") {
		t.Errorf("GuestPC = %#x, String = %q", in.GuestPC(), in.String())
	}
}

func TestCodeBytes(t *testing.T) {
	code := []Inst{
		{Op: ADDI, Rd: 1, Rs: 1, Imm: 4},
		{Op: CHAIN, Imm: 0x1000},
	}
	if got := CodeBytes(code); got != 12 {
		t.Errorf("CodeBytes = %d, want 12", got)
	}
}

func TestBlockEnd(t *testing.T) {
	ends := []Op{J, JR, EXITI, EXITR, CHAIN}
	for _, op := range ends {
		if !(Inst{Op: op}).IsBlockEnd() {
			t.Errorf("%v.IsBlockEnd() = false", op)
		}
	}
	notEnds := []Op{BEQ, BNE, ADD, GLW, SYSC, NOP}
	for _, op := range notEnds {
		if (Inst{Op: op}).IsBlockEnd() {
			t.Errorf("%v.IsBlockEnd() = true", op)
		}
	}
}

func TestGuestAccessClassification(t *testing.T) {
	loads := []Op{GLB, GLBU, GLH, GLHU, GLW}
	for _, op := range loads {
		if !op.IsGuestLoad() || op.IsGuestStore() {
			t.Errorf("%v misclassified", op)
		}
	}
	stores := []Op{GSB, GSH, GSW}
	for _, op := range stores {
		if !op.IsGuestStore() || op.IsGuestLoad() {
			t.Errorf("%v misclassified", op)
		}
	}
	if GLW.GuestAccessBytes() != 4 || GLH.GuestAccessBytes() != 2 || GSB.GuestAccessBytes() != 1 {
		t.Error("GuestAccessBytes wrong")
	}
	if ADD.GuestAccessBytes() != 0 {
		t.Error("ADD should have no guest access width")
	}
}

// randInst generates a random but encodable instruction.
func randInst(r *rand.Rand) Inst {
	for {
		op := Op(r.Intn(int(numOps)))
		in := Inst{Op: op}
		switch kindOf(op) {
		case encN:
		case encR:
			in.Rd = uint8(r.Intn(32))
			in.Rs = uint8(r.Intn(32))
			in.Rt = uint8(r.Intn(32))
		case encI:
			in.Rd = uint8(r.Intn(32))
			in.Rs = uint8(r.Intn(32))
			switch op {
			case ANDI, ORI, XORI, LUI:
				in.Imm = int32(r.Intn(MaxUImm + 1))
			case SLLI, SRLI, SRAI:
				in.Imm = int32(r.Intn(32))
			default:
				in.Imm = int32(r.Intn(MaxUImm+1)) + MinSImm
			}
		case encB:
			in.Rs = uint8(r.Intn(32))
			in.Rt = uint8(r.Intn(32))
			in.Imm = int32(r.Intn(MaxUImm+1)) + MinSImm
		case encJ:
			in.Imm = int32(r.Intn(1<<26)) - 1<<25
		case encX:
			in.Imm = int32(r.Uint32())
		}
		return in
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		in := randInst(r)
		w := Encode(nil, in)
		got, n, err := Decode(w, 0)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		if n != len(w) {
			t.Fatalf("Decode consumed %d words, encoded %d", n, len(w))
		}
		if got != in {
			t.Fatalf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestEncodeDecodeSequence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var code []Inst
	for i := 0; i < 500; i++ {
		code = append(code, randInst(r))
	}
	w := EncodeAll(code)
	back, err := DecodeAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(code) {
		t.Fatalf("decoded %d insts, want %d", len(back), len(code))
	}
	for i := range code {
		if back[i] != code[i] {
			t.Fatalf("inst %d: got %+v, want %+v", i, back[i], code[i])
		}
	}
}

func TestEncodePanicsOnBadImmediate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode accepted out-of-range immediate")
		}
	}()
	Encode(nil, Inst{Op: ADDI, Rd: 1, Rs: 1, Imm: 1 << 20})
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil, 0); err == nil {
		t.Error("Decode past end should fail")
	}
	// Truncated two-word op.
	w := Encode(nil, Inst{Op: EXITI, Imm: 5})
	if _, _, err := Decode(w[:1], 0); err == nil {
		t.Error("truncated EXITI should fail")
	}
	// Bad opcode.
	if _, _, err := Decode([]uint32{uint32(numOps) << 26}, 0); err == nil {
		t.Error("bad opcode should fail")
	}
}

func TestDisassembleMentionsOps(t *testing.T) {
	code := []Inst{
		{Op: ADDI, Rd: 1, Rs: 2, Imm: -5},
		{Op: GLW, Rd: 3, Rs: 4},
		{Op: CHAIN, Imm: 0x8048123},
	}
	s := Disassemble(code)
	for _, want := range []string{"addi", "glw", "chain", "0x8048123"} {
		if !strings.Contains(s, want) {
			t.Errorf("Disassemble output missing %q:\n%s", want, s)
		}
	}
}

func TestImmSignConventionProperty(t *testing.T) {
	// Property: for every op, encoding then decoding preserves the
	// canonical immediate convention.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		w := Encode(nil, in)
		got, _, err := Decode(w, 0)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUseDefCoversEveryOp walks the whole opcode space against an
// explicit expectation, so a new opcode cannot reach the optimizer and
// the register allocator through the switch defaults of Uses/Def
// without someone deciding what it reads and writes.
func TestUseDefCoversEveryOp(t *testing.T) {
	type ud struct {
		uses int  // 0: none, 1: Rs, 2: Rs and Rt
		def  bool // writes Rd
	}
	want := map[Op]ud{
		NOP: {0, false}, LUI: {0, true},
		ADDI: {1, true}, ANDI: {1, true}, ORI: {1, true}, XORI: {1, true},
		SLTI: {1, true}, SLTIU: {1, true}, SLLI: {1, true}, SRLI: {1, true}, SRAI: {1, true},
		ADD: {2, true}, SUB: {2, true}, AND: {2, true}, OR: {2, true}, XOR: {2, true},
		NOR: {2, true}, SLT: {2, true}, SLTU: {2, true}, SLL: {2, true}, SRL: {2, true}, SRA: {2, true},
		MULT: {2, false}, MULTU: {2, false}, DIV: {2, false}, DIVU: {2, false},
		MFHI: {0, true}, MFLO: {0, true},
		LW: {1, true}, SW: {2, false},
		BEQ: {2, false}, BNE: {2, false},
		BLEZ: {1, false}, BGTZ: {1, false}, BLTZ: {1, false}, BGEZ: {1, false},
		J: {0, false}, JAL: {0, false}, JR: {1, false},
		GLB: {1, true}, GLBU: {1, true}, GLH: {1, true}, GLHU: {1, true}, GLW: {1, true},
		GSB: {2, false}, GSH: {2, false}, GSW: {2, false},
		SYSC: {0, false}, EXITI: {0, false}, EXITR: {1, false}, CHAIN: {0, false},
		ASSIST: {0, false},
	}
	for op := Op(0); op < numOps; op++ {
		w, ok := want[op]
		if !ok {
			t.Errorf("%v: no use/def expectation; classify it in Inst.Uses/Def and here", op)
			continue
		}
		in := Inst{Op: op, Rd: 11, Rs: 12, Rt: 13}
		uses, n := in.Uses()
		if n != w.uses || (n >= 1 && uses[0] != 12) || (n == 2 && uses[1] != 13) {
			t.Errorf("%v: Uses() = %v,%d, want %d of (Rs, Rt)", op, uses, n, w.uses)
		}
		if d := in.Def(); (d != 0) != w.def || (w.def && d != 11) {
			t.Errorf("%v: Def() = %d, want def=%v", op, d, w.def)
		}
	}
}
