package rawisa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{ADD, 1}, {LUI, 1}, {EXITI, 2}, {CHAIN, 2}, {ASSIST, 2}, {J, 1}, {GSW, 1},
	}
	for _, c := range cases {
		if got := c.op.Words(); got != c.want {
			t.Errorf("%v.Words() = %d, want %d", c.op, got, c.want)
		}
		w, err := Append(nil, &Inst{Op: c.op})
		if err != nil || len(w) != c.want {
			t.Errorf("%v encodes to %d words (%v), want %d", c.op, len(w), err, c.want)
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

// TestCodeBytes: a code sequence's size in the code caches is four bytes
// a word, and an exit's guest PC takes a word of its own.
func TestCodeBytes(t *testing.T) {
	w, err := Encode([]Inst{
		{Op: ADDI, Rd: 1, Rs: 1, Imm: 4},
		{Op: CHAIN, Imm: 0x1000},
	})
	if err != nil || 4*len(w) != 12 {
		t.Errorf("%d bytes (%v), want 12", 4*len(w), err)
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
		w, err := Append(nil, &in)
		if err != nil {
			t.Fatal(err)
		}
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
	w, err := Encode(code)
	if err != nil {
		t.Fatal(err)
	}
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

// TestAppendRejectsWhatItCannotEncode: an instruction whose fields do
// not fit its format is an error, and nothing is appended, never a
// truncated word.
func TestAppendRejectsWhatItCannotEncode(t *testing.T) {
	bad := []Inst{
		{Op: ADDI, Rd: 1, Rs: 1, Imm: 1 << 20},
		{Op: ADDI, Rd: 1, Rs: 1, Imm: MaxSImm + 1},
		{Op: ORI, Rd: 1, Rs: 1, Imm: -1},
		{Op: LUI, Rd: 1, Imm: 1 << 16},
		{Op: SLLI, Rd: 1, Rs: 1, Imm: 32},
		{Op: ADD, Rd: 32, Rs: 1, Rt: 2},
		{Op: ADD, Rd: 1, Rs: 1, Rt: 2, Imm: 4},
		{Op: ADDI, Rd: 1, Rs: 1, Rt: 3, Imm: 4},
		{Op: GSW, Rd: 1, Rs: 2, Rt: 3},
		{Op: BEQ, Rs: 1, Rt: 2, Imm: MinSImm - 1},
		{Op: J, Imm: 1 << 25},
		{Op: EXITI, Rs: 1, Imm: 0x1000},
		{Op: SYSC, Imm: 1},
		{Op: numOps},
	}
	prefix := []Word{7}
	for _, in := range bad {
		got, err := Append(prefix, &in)
		if err == nil || len(got) != 1 {
			t.Errorf("Append(%+v) = %d words, %v; want an error and nothing appended", in, len(got)-1, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil, 0); err == nil {
		t.Error("Decode past end should fail")
	}
	// Truncated two-word op.
	w, _ := Append(nil, &Inst{Op: EXITI, Imm: 5})
	if _, _, err := Decode(w[:1], 0); err == nil {
		t.Error("truncated EXITI should fail")
	}
	// Bad opcode.
	if _, _, err := Decode([]Word{Word(numOps) << 26}, 0); err == nil {
		t.Error("bad opcode should fail")
	}
}

func TestDisassembleMentionsOps(t *testing.T) {
	code := []Inst{
		{Op: ADDI, Rd: 1, Rs: 2, Imm: -5},
		{Op: GLW, Rd: 3, Rs: 4},
		{Op: CHAIN, Imm: 0x8048123},
	}
	w, err := Encode(code)
	if err != nil {
		t.Fatal(err)
	}
	s := Disassemble(w)
	for _, want := range []string{"addi", "glw", "   1: glw", "   2: chain", "0x8048123"} {
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
		w, err := Append(nil, &in)
		if err != nil {
			return false
		}
		got, _, err := Decode(w, 0)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUseDefCoversEveryOp walks the whole opcode space against an
// explicit expectation, so a new opcode cannot reach the optimizer and
// the register allocator through a zero table entry in UseRegs/Def
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
			t.Errorf("%v: no use/def expectation; classify it in opInfos and here", op)
			continue
		}
		in := Inst{Op: op, Rd: 11, Rs: 12, Rt: 13}
		wantRs, wantRt := uint8(0), uint8(0)
		if w.uses >= 1 {
			wantRs = 12
		}
		if w.uses == 2 {
			wantRt = 13
		}
		if rs, rt := in.UseRegs(); rs != wantRs || rt != wantRt {
			t.Errorf("%v: UseRegs() = %d,%d, want %d,%d", op, rs, rt, wantRs, wantRt)
		}
		if d := in.Def(); (d != 0) != w.def || (w.def && d != 11) {
			t.Errorf("%v: Def() = %d, want def=%v", op, d, w.def)
		}
	}
	for op := numOps; op != 0; op++ { // the byte values that are not opcodes
		in := Inst{Op: op, Rd: 11, Rs: 12, Rt: 13}
		if rs, rt := in.UseRegs(); rs != 0 || rt != 0 || in.Def() != 0 {
			t.Errorf("%v: reads %d,%d and writes %d; not an opcode", op, rs, rt, in.Def())
		}
	}
}
