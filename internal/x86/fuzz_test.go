package x86

import (
	"math/rand"
	"testing"
)

// TestDecodeNeverPanics feeds random byte soup to the decoder: every
// input must either decode or return an error, never panic, and a
// successful decode must report a sane length. Speculative translation
// routinely decodes garbage (data mistaken for code), so this is a
// load-bearing property.
func TestDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	buf := make([]byte, MaxInstLen+8)
	for i := 0; i < 200_000; i++ {
		n := 1 + r.Intn(len(buf))
		for j := 0; j < n; j++ {
			buf[j] = byte(r.Intn(256))
		}
		in, err := Decode(buf[:n], 0x1000)
		if err != nil {
			continue
		}
		if in.Len == 0 || int(in.Len) > n {
			t.Fatalf("decode of % x: len %d out of range", buf[:n], in.Len)
		}
	}
}

// TestDecodeAllPrefixStorms exercises pathological prefix runs.
func TestDecodeAllPrefixStorms(t *testing.T) {
	prefixes := []byte{0x66, 0xF3, 0xF2, 0x2E, 0x3E, 0x26, 0x36, 0x64, 0x65, 0xF0}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		var buf []byte
		for j := 0; j < r.Intn(20); j++ {
			buf = append(buf, prefixes[r.Intn(len(prefixes))])
		}
		buf = append(buf, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)),
			byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		in, err := Decode(buf, 0)
		if err == nil && int(in.Len) > len(buf) {
			t.Fatalf("length overrun on % x", buf)
		}
	}
}

// FuzzDecode is the native fuzz target behind TestDecodeNeverPanics:
// any input must decode or be rejected with an error — never panic,
// never report a length outside the consumed bytes — and decoding must
// be deterministic.
//
//	go test ./internal/x86 -fuzz FuzzDecode -fuzztime 30s
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x90})                                     // nop
	f.Add([]byte{0x01, 0xD8})                               // add eax, ebx
	f.Add([]byte{0xB8, 0x78, 0x56, 0x34, 0x12})             // mov eax, imm32
	f.Add([]byte{0x0F, 0xAF, 0xC3})                         // imul eax, ebx
	f.Add([]byte{0x8B, 0x84, 0x8B, 0x44, 0x33, 0x22, 0x11}) // mov eax, [ebx+ecx*4+disp32]
	f.Add([]byte{0x66, 0xF3, 0x66, 0xF2, 0x0F})             // prefix soup
	f.Add([]byte{0xCD, 0x80})                               // int 0x80
	f.Add([]byte{0x66, 0xA3, 0x00, 0xF0, 0x04, 0x08})       // mov [moffs16], ax
	f.Add([]byte{0x83, 0xF9, 0xFC})                         // cmp ecx, -4
	f.Add([]byte{0x6B, 0xDB, 0xFD})                         // imul ebx, ebx, -3
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := Decode(data, 0x1000)
		if err != nil {
			return
		}
		if in.Len == 0 || int(in.Len) > len(data) {
			t.Fatalf("decode of % x: len %d out of range", data, in.Len)
		}
		again, err := Decode(data, 0x1000)
		if err != nil || again != in {
			t.Fatalf("decode of % x not deterministic: %+v / %+v (err %v)", data, in, again, err)
		}
	})
}

// TestDecodeEncodeRoundTrip assembles one instruction of (nearly) every
// form the assembler can emit and decodes the byte stream back: each
// instruction must decode without error, at its exact encoded length,
// to the operation that was assembled.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	a := NewAsm(0x8048000)
	type span struct {
		op  Op
		off int
	}
	var spans []span
	emit := func(op Op, f func()) {
		spans = append(spans, span{op, a.Len()})
		f()
	}

	mem := MemIdx(EBX, ECX, 4, 0x1234)
	for _, op := range []Op{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP} {
		op := op
		emit(op, func() { a.ALU(op, RegOp(EAX, 4), RegOp(EDX, 4)) })
		emit(op, func() { a.ALU(op, RegOp(EAX, 4), mem) })
		emit(op, func() { a.ALU(op, mem, ImmOp(0x42, 4)) })
	}
	emit(MOV, func() { a.MovRegImm(EDI, 0xdeadbeef) })
	emit(MOV, func() { a.MovRegReg(EAX, EBP) })
	emit(MOV, func() { a.MovRegMem(EAX, mem) })
	emit(MOV, func() { a.MovMemReg(mem, ESI) })
	emit(MOV, func() { a.MovMemImm(Mem(ESP, 8), 7) })
	emit(MOV, func() { a.MovRegMem8(EAX, mem) })
	emit(MOV, func() { a.MovMemReg8(mem, ECX) })
	emit(MOVZX, func() { a.Movzx8(EDX, mem) })
	emit(MOVSX, func() { a.Movsx8(EDX, mem) })
	emit(LEA, func() { a.Lea(EAX, mem) })
	emit(PUSH, func() { a.Push(EBX) })
	emit(PUSH, func() { a.PushImm(0x1000) })
	emit(POP, func() { a.Pop(EBX) })
	emit(INC, func() { a.IncReg(EAX) })
	emit(DEC, func() { a.DecReg(EAX) })
	emit(NEG, func() { a.Neg(RegOp(EAX, 4)) })
	emit(NOT, func() { a.Not(mem) })
	emit(SHL, func() { a.ShiftImm(SHL, RegOp(EAX, 4), 3) })
	emit(SHR, func() { a.ShiftImm(SHR, mem, 1) })
	emit(SAR, func() { a.ShiftCL(SAR, RegOp(EDX, 4)) })
	emit(SHLD, func() { a.ShiftDoubleImm(SHLD, RegOp(EAX, 4), EBX, 5) })
	emit(SHRD, func() { a.ShiftDoubleCL(SHRD, RegOp(EAX, 4), EBX) })
	emit(IMUL2, func() { a.IMulRegRM(EAX, RegOp(ECX, 4)) })
	emit(IMUL2, func() { a.IMulRegRMImm(EAX, RegOp(ECX, 4), 100) })
	emit(MUL, func() { a.MulRM(RegOp(EBX, 4)) })
	emit(DIV, func() { a.DivRM(RegOp(EBX, 4)) })
	emit(IDIV, func() { a.IDivRM(mem) })
	emit(BSWAP, func() { a.Bswap(EDX) })
	emit(CWDE, func() { a.Cwde() })
	emit(BT, func() { a.BtReg(BT, RegOp(EAX, 4), EBX) })
	emit(BTS, func() { a.BtImm(BTS, mem, 7) })
	emit(BSF, func() { a.Bsf(EAX, RegOp(EBX, 4)) })
	emit(BSR, func() { a.Bsr(EAX, mem) })
	emit(CMPXCHG, func() { a.Cmpxchg(mem, EDX) })
	emit(XADD, func() { a.Xadd(RegOp(EAX, 4), EDX) })
	emit(SETCC, func() { a.Setcc(CondNE, RegOp(EAX, 1)) })
	emit(CMOVCC, func() { a.Cmovcc(CondL, EAX, RegOp(EBX, 4)) })
	emit(CLD, func() { a.Cld() })
	emit(MOVS, func() { a.RepMovsd() })
	emit(STOS, func() { a.RepStosd() })
	emit(CMPS, func() { a.RepeCmpsd() })
	emit(SCAS, func() { a.RepneScasb() })
	emit(CALLIND, func() { a.CallReg(EAX) })
	emit(CALLIND, func() { a.CallMem(mem) })
	emit(JMPIND, func() { a.JmpReg(EAX) })
	emit(JCC, func() { a.Jcc(CondG, "fwd") })
	emit(JMP, func() { a.Jmp("fwd") })
	emit(CALL, func() { a.Call("fwd") })
	a.Label("fwd")
	emit(LEAVE, func() { a.Leave() })
	emit(RET, func() { a.Ret() })
	emit(RET, func() { a.RetImm(8) })
	emit(INT, func() { a.Int(0x80) })
	emit(HLT, func() { a.Hlt() })

	code := a.Bytes()
	for i, s := range spans {
		end := len(code)
		if i+1 < len(spans) {
			end = spans[i+1].off
		}
		in, err := Decode(code[s.off:], 0x8048000+uint32(s.off))
		if err != nil {
			t.Fatalf("span %d (%v) at +%#x: decode failed: %v (bytes % x)",
				i, s.op, s.off, err, code[s.off:end])
		}
		if int(in.Len) != end-s.off {
			t.Errorf("span %d (%v): decoded length %d, encoded %d (bytes % x)",
				i, s.op, in.Len, end-s.off, code[s.off:end])
		}
		if in.Op != s.op {
			t.Errorf("span %d: assembled %v, decoded %v (bytes % x)",
				i, s.op, in.Op, code[s.off:end])
		}
	}
}

// TestDecodeTruncationAtEveryPoint truncates valid encodings at every
// byte position; the decoder must fail cleanly, not read past the end.
func TestDecodeTruncationAtEveryPoint(t *testing.T) {
	a := NewAsm(0)
	a.ALU(ADD, RegOp(EAX, 4), MemIdx(EBX, ECX, 4, 0x12345))
	a.MovRegImm(EDX, 0xdeadbeef)
	a.Jcc(CondG, "x")
	a.Label("x")
	a.ShiftDoubleImm(SHLD, RegOp(EAX, 4), EBX, 5)
	code := a.Bytes()
	for end := 0; end < len(code); end++ {
		// Any prefix of the stream: must not panic.
		Decode(code[:end], 0)
	}
}
