package x86

import (
	"testing"
)

// decodeOne decodes a single instruction and fails the test on error.
func decodeOne(t *testing.T, code []byte, addr uint32) Inst {
	t.Helper()
	in, err := Decode(code, addr)
	if err != nil {
		t.Fatalf("Decode(% x): %v", code, err)
	}
	if int(in.Len) != len(code) {
		t.Fatalf("Decode(% x): len = %d, want %d (%v)", code, in.Len, len(code), in)
	}
	return in
}

func TestDecodeMovRegImm(t *testing.T) {
	a := NewAsm(0x1000)
	a.MovRegImm(ECX, 0xdeadbeef)
	in := decodeOne(t, a.Bytes(), 0x1000)
	if in.Op != MOV || in.Dst.Reg != ECX || uint32(in.Src.Imm) != 0xdeadbeef {
		t.Errorf("got %v", in)
	}
}

func TestDecodeALUForms(t *testing.T) {
	cases := []struct {
		emit func(*Asm)
		want string
	}{
		{func(a *Asm) { a.ALU(ADD, RegOp(EAX, 4), RegOp(EBX, 4)) }, "add eax, ebx"},
		{func(a *Asm) { a.ALU(SUB, RegOp(ESI, 4), ImmOp(100, 4)) }, "sub esi, 0x64"},
		{func(a *Asm) { a.ALU(CMP, RegOp(EDX, 4), Mem(EBP, -8)) }, "cmp edx, [ebp-0x8]"},
		{func(a *Asm) { a.ALU(XOR, Mem(ESP, 4), RegOp(EDI, 4)) }, "xor [esp+0x4], edi"},
		{func(a *Asm) { a.ALU(AND, RegOp(EAX, 4), ImmOp(-16, 4)) }, "and eax, 0xfffffff0"},
		{func(a *Asm) { a.ALU(ADC, RegOp(ECX, 4), RegOp(ECX, 4)) }, "adc ecx, ecx"},
		{func(a *Asm) { a.ALU(SBB, RegOp(EDX, 4), ImmOp(1, 4)) }, "sbb edx, 0x1"},
		{func(a *Asm) { a.ALU(OR, RegOp(EBX, 4), MemIdx(EAX, ECX, 4, 0x10)) }, "or ebx, [eax+ecx*4+0x10]"},
	}
	for _, c := range cases {
		a := NewAsm(0)
		c.emit(a)
		in := decodeOne(t, a.Bytes(), 0)
		if got := in.String(); got != c.want {
			t.Errorf("decoded %q, want %q", got, c.want)
		}
	}
}

// TestDecodeGroup1Imm8: 0x83's immediate is one byte in the encoding
// but an operand of the instruction's size, sign-extended to it, so a
// reader that masks an immediate to its size still sees -4 as -4.
func TestDecodeGroup1Imm8(t *testing.T) {
	for _, c := range []struct {
		code []byte
		want Inst
	}{
		{[]byte{0x83, 0xF9, 0xFC}, Inst{Op: CMP, Dst: RegOp(ECX, 4), Src: ImmOp(-4, 4)}},       // cmp ecx, -4
		{[]byte{0x83, 0xE4, 0xF0}, Inst{Op: AND, Dst: RegOp(ESP, 4), Src: ImmOp(-16, 4)}},      // and esp, -16
		{[]byte{0x66, 0x83, 0xC3, 0xFF}, Inst{Op: ADD, Dst: RegOp(EBX, 2), Src: ImmOp(-1, 2)}}, // add bx, -1
		{[]byte{0x83, 0xC0, 0x7F}, Inst{Op: ADD, Dst: RegOp(EAX, 4), Src: ImmOp(127, 4)}},      // add eax, 127
	} {
		in := decodeOne(t, c.code, 0)
		if in.Op != c.want.Op || in.Dst != c.want.Dst || in.Src != c.want.Src {
			t.Errorf("% x: %v with source %+v, want %v with source %+v", c.code, in, in.Src, c.want, c.want.Src)
		}
	}
}

func TestDecodeSIBForms(t *testing.T) {
	// [ecx*8+0x40] with no base: SIB with base=5, mod=0.
	a := NewAsm(0)
	a.MovRegMem(EAX, MemOp(NoIndex, int8(ECX), 8, 0x40, 4))
	in := decodeOne(t, a.Bytes(), 0)
	if in.Src.Base != NoIndex || in.Src.Index != int8(ECX) || in.Src.Scale != 8 || in.Src.Disp != 0x40 {
		t.Errorf("got %+v", in.Src)
	}
	// [esp] requires SIB.
	a = NewAsm(0)
	a.MovRegMem(EBX, Mem(ESP, 0))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Src.Base != int8(ESP) || in.Src.Index != NoIndex {
		t.Errorf("[esp]: got %+v", in.Src)
	}
	// [ebp] with mod=0 means disp32, so assembler must use disp8=0.
	a = NewAsm(0)
	a.MovRegMem(EBX, Mem(EBP, 0))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Src.Base != int8(EBP) || in.Src.Disp != 0 {
		t.Errorf("[ebp]: got %+v", in.Src)
	}
	// Absolute address.
	a = NewAsm(0)
	a.MovRegMem(EBX, MemAbs(0x804f000))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Src.Base != NoIndex || uint32(in.Src.Disp) != 0x804f000 {
		t.Errorf("abs: got %+v", in.Src)
	}
}

// TestDecodeMovMoffs checks the accumulator/absolute-offset forms
// 0xA0–0xA3, with and without the operand-size prefix: each decodes to
// the same instruction as the ModRM absolute-address form of the move
// (mod=0, r/m=5 with reg=EAX), so every consumer of Decode already
// handles it.
func TestDecodeMovMoffs(t *testing.T) {
	disp := []byte{0x00, 0xF0, 0x04, 0x08} // 0x0804f000
	for _, c := range []struct {
		moffs, modrm []byte
		size         uint8
	}{
		{[]byte{0xA0}, []byte{0x8A, 0x05}, 1},             // mov al, [moffs8]
		{[]byte{0xA1}, []byte{0x8B, 0x05}, 4},             // mov eax, [moffs32]
		{[]byte{0x66, 0xA1}, []byte{0x66, 0x8B, 0x05}, 2}, // mov ax, [moffs16]
		{[]byte{0xA2}, []byte{0x88, 0x05}, 1},             // mov [moffs8], al
		{[]byte{0xA3}, []byte{0x89, 0x05}, 4},             // mov [moffs32], eax
		{[]byte{0x66, 0xA3}, []byte{0x66, 0x89, 0x05}, 2}, // mov [moffs16], ax
	} {
		got := decodeOne(t, append(c.moffs, disp...), 0x1000)
		want := decodeOne(t, append(c.modrm, disp...), 0x1000)
		mem, acc := got.Src, got.Dst
		if c.moffs[len(c.moffs)-1] >= 0xA2 { // the store forms
			mem, acc = got.Dst, got.Src
		}
		if got.Op != MOV || mem != MemOp(NoIndex, NoIndex, 1, 0x0804f000, c.size) || acc != RegOp(EAX, c.size) {
			t.Errorf("% x: decoded %v (%+v, %+v)", c.moffs, got, got.Dst, got.Src)
		}
		got.Len, want.Len = 0, 0
		if got != want {
			t.Errorf("% x decodes to %+v, ModRM form % x to %+v", c.moffs, got, c.modrm, want)
		}
		if _, err := Decode(append(c.moffs, disp[:3]...), 0x1000); err == nil {
			t.Errorf("% x with a 3-byte offset decoded", c.moffs)
		}
	}
}

func TestDecodeBranches(t *testing.T) {
	a := NewAsm(0x8048000)
	a.Label("top")
	a.IncReg(EAX)
	a.Jcc(CondNE, "top")
	a.Jmp("top")
	code := a.Bytes()

	in := decodeOne(t, code[:1], 0x8048000)
	if in.Op != INC {
		t.Fatalf("got %v", in)
	}
	in, err := Decode(code[1:], 0x8048001)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != JCC || in.Cond != CondNE || in.BranchTarget() != 0x8048000 {
		t.Errorf("jcc: %v target %#x", in, in.BranchTarget())
	}
	in, err = Decode(code[1+int(in.Len):], in.Next())
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != JMP || in.BranchTarget() != 0x8048000 {
		t.Errorf("jmp: %v target %#x", in, in.BranchTarget())
	}
}

func TestDecodeShortJcc(t *testing.T) {
	// 0x74 0xFE = JE to itself.
	in := decodeOne(t, []byte{0x74, 0xFE}, 0x100)
	if in.Op != JCC || in.Cond != CondE || in.BranchTarget() != 0x100 {
		t.Errorf("got %v, target %#x", in, in.BranchTarget())
	}
}

func TestDecodeCallRet(t *testing.T) {
	a := NewAsm(0x1000)
	a.Call("f")
	a.Label("f")
	a.Ret()
	code := a.Bytes()
	in := decodeOne(t, code[:5], 0x1000)
	if in.Op != CALL || in.BranchTarget() != 0x1005 {
		t.Errorf("call: %v -> %#x", in, in.BranchTarget())
	}
	in = decodeOne(t, code[5:], 0x1005)
	if in.Op != RET {
		t.Errorf("ret: %v", in)
	}
	// RET imm16.
	a = NewAsm(0)
	a.RetImm(8)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != RET || in.Dst.Imm != 8 {
		t.Errorf("ret 8: %v", in)
	}
}

func TestDecodeIndirect(t *testing.T) {
	a := NewAsm(0)
	a.JmpReg(EAX)
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != JMPIND || in.Src.Kind != KReg || in.Src.Reg != EAX {
		t.Errorf("jmp eax: %v", in)
	}
	a = NewAsm(0)
	a.JmpMem(MemIdx(EBX, ECX, 4, 0))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != JMPIND || in.Src.Kind != KMem {
		t.Errorf("jmp [ebx+ecx*4]: %v", in)
	}
	a = NewAsm(0)
	a.CallReg(EDX)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != CALLIND || in.Src.Reg != EDX {
		t.Errorf("call edx: %v", in)
	}
}

func TestDecodeGroup3(t *testing.T) {
	a := NewAsm(0)
	a.Neg(RegOp(EBX, 4))
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != NEG || in.Dst.Reg != EBX {
		t.Errorf("neg: %v", in)
	}
	a = NewAsm(0)
	a.MulRM(RegOp(ECX, 4))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != MUL || in.Src.Reg != ECX || in.OpSize != 4 {
		t.Errorf("mul: %v", in)
	}
	a = NewAsm(0)
	a.IDivRM(RegOp(EDI, 4))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != IDIV || in.Src.Reg != EDI {
		t.Errorf("idiv: %v", in)
	}
	a = NewAsm(0)
	a.TestImm(RegOp(EAX, 4), 0xff)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != TEST || in.Src.Imm != 0xff {
		t.Errorf("test imm: %v", in)
	}
}

func TestDecodeShifts(t *testing.T) {
	a := NewAsm(0)
	a.ShiftImm(SHL, RegOp(EAX, 4), 4)
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != SHL || in.Src.Imm != 4 {
		t.Errorf("shl: %v", in)
	}
	a = NewAsm(0)
	a.ShiftImm(SAR, RegOp(EDX, 4), 1)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != SAR || in.Src.Imm != 1 {
		t.Errorf("sar 1: %v", in)
	}
	a = NewAsm(0)
	a.ShiftCL(SHR, RegOp(EBX, 4))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != SHR || in.Src.Kind != KReg || in.Src.Reg != ECX || in.Src.Size != 1 {
		t.Errorf("shr cl: %v", in)
	}
}

func TestDecodeIMulForms(t *testing.T) {
	a := NewAsm(0)
	a.IMulRegRM(EAX, RegOp(EBX, 4))
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != IMUL2 || in.Dst.Reg != EAX || in.Src.Reg != EBX || in.Src2.Kind != KNone {
		t.Errorf("imul r,rm: %v", in)
	}
	a = NewAsm(0)
	a.IMulRegRMImm(ECX, RegOp(EDX, 4), 1000)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != IMUL2 || in.Src2.Imm != 1000 {
		t.Errorf("imul r,rm,imm: %v", in)
	}
	a = NewAsm(0)
	a.IMulRegRMImm(ECX, RegOp(EDX, 4), 3)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != IMUL2 || in.Src2.Imm != 3 {
		t.Errorf("imul r,rm,imm8: %v", in)
	}
}

func TestDecodeStackOps(t *testing.T) {
	a := NewAsm(0)
	a.Push(EBP)
	a.Pop(EBP)
	a.PushImm(0x1234)
	a.Leave()
	code := a.Bytes()
	in := decodeOne(t, code[:1], 0)
	if in.Op != PUSH || in.Dst.Reg != EBP {
		t.Errorf("push: %v", in)
	}
	in = decodeOne(t, code[1:2], 1)
	if in.Op != POP || in.Dst.Reg != EBP {
		t.Errorf("pop: %v", in)
	}
	in = decodeOne(t, code[2:7], 2)
	if in.Op != PUSH || in.Dst.Imm != 0x1234 {
		t.Errorf("push imm: %v", in)
	}
	in = decodeOne(t, code[7:], 7)
	if in.Op != LEAVE {
		t.Errorf("leave: %v", in)
	}
}

func TestDecodeExtendAndConditionalOps(t *testing.T) {
	a := NewAsm(0)
	a.Movzx8(EAX, Mem(ESI, 0))
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != MOVZX || in.Src.Size != 1 || in.Dst.Size != 4 {
		t.Errorf("movzx: %v", in)
	}
	a = NewAsm(0)
	a.Setcc(CondG, RegOp(EAX, 1))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != SETCC || in.Cond != CondG {
		t.Errorf("setg: %v", in)
	}
	a = NewAsm(0)
	a.Cmovcc(CondL, EBX, RegOp(ECX, 4))
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != CMOVCC || in.Cond != CondL || in.Dst.Reg != EBX {
		t.Errorf("cmovl: %v", in)
	}
	a = NewAsm(0)
	a.Bswap(EDX)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != BSWAP || in.Dst.Reg != EDX {
		t.Errorf("bswap: %v", in)
	}
}

func TestDecodeStringOps(t *testing.T) {
	a := NewAsm(0)
	a.RepMovsd()
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != MOVS || !in.Rep || in.OpSize != 4 {
		t.Errorf("rep movsd: %v", in)
	}
	a = NewAsm(0)
	a.RepStosd()
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != STOS || !in.Rep || in.OpSize != 4 {
		t.Errorf("rep stosd: %v", in)
	}
	in = decodeOne(t, []byte{0xA4}, 0)
	if in.Op != MOVS || in.Rep || in.OpSize != 1 {
		t.Errorf("movsb: %v", in)
	}
}

func TestDecodeSyscall(t *testing.T) {
	a := NewAsm(0)
	a.Int(0x80)
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != INT || in.Dst.Imm != 0x80 {
		t.Errorf("int 0x80: %v", in)
	}
}

func TestDecodeLeaForms(t *testing.T) {
	a := NewAsm(0)
	a.Lea(EAX, MemIdx(EBX, ESI, 2, -4))
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != LEA || in.Src.Base != int8(EBX) || in.Src.Index != int8(ESI) ||
		in.Src.Scale != 2 || in.Src.Disp != -4 {
		t.Errorf("lea: %v (%+v)", in, in.Src)
	}
}

func TestDecodeRejectsUnsupported(t *testing.T) {
	bad := [][]byte{
		{0x0F, 0x05},       // SYSCALL (64-bit)
		{0xD8, 0xC0},       // x87
		{0x67, 0x8B, 0x00}, // 16-bit addressing
		{0xCC},             // INT3
		{},                 // empty
	}
	for _, code := range bad {
		if _, err := Decode(code, 0); err == nil {
			t.Errorf("Decode(% x) succeeded, want error", code)
		}
	}
}

func TestDecodeOperandSizePrefix(t *testing.T) {
	// 66 B8 34 12 = MOV AX, 0x1234
	in := decodeOne(t, []byte{0x66, 0xB8, 0x34, 0x12}, 0)
	if in.Op != MOV || in.Dst.Size != 2 || in.Src.Imm != 0x1234 {
		t.Errorf("mov ax: %v", in)
	}
}

func TestDecodeXchgAndNop(t *testing.T) {
	in := decodeOne(t, []byte{0x90}, 0)
	if in.Op != NOPOP {
		t.Errorf("nop: %v", in)
	}
	in = decodeOne(t, []byte{0x93}, 0) // XCHG EAX, EBX
	if in.Op != XCHG || in.Src.Reg != EBX {
		t.Errorf("xchg: %v", in)
	}
}

func TestDecodeCdqAndFlagsOps(t *testing.T) {
	for _, c := range []struct {
		b    byte
		want Op
	}{
		{0x99, CDQ}, {0xF8, CLC}, {0xF9, STC}, {0xF5, CMC},
		{0xFC, CLD}, {0xFD, STD}, {0x9E, SAHF}, {0x9F, LAHF}, {0xF4, HLT},
	} {
		in := decodeOne(t, []byte{c.b}, 0)
		if in.Op != c.want {
			t.Errorf("%#02x: got %v, want %v", c.b, in.Op, c.want)
		}
	}
}

func TestDecodeGroup5(t *testing.T) {
	a := NewAsm(0)
	a.db(0xFF, 0x30) // PUSH [eax]
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != PUSH || in.Dst.Kind != KMem {
		t.Errorf("push [eax]: %v", in)
	}
	a = NewAsm(0)
	a.db(0xFF, 0xC3) // INC ebx via group 5
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != INC || in.Dst.Reg != EBX {
		t.Errorf("inc ebx (ff/0): %v", in)
	}
}

func TestDecodeExtendedOps(t *testing.T) {
	cases := []struct {
		emit func(a *Asm)
		want string
	}{
		{func(a *Asm) { a.BtImm(BT, RegOp(EAX, 4), 5) }, "bt eax, 0x5"},
		{func(a *Asm) { a.BtReg(BTS, RegOp(EBX, 4), ECX) }, "bts ebx, ecx"},
		{func(a *Asm) { a.BtReg(BTR, Mem(ESI, 4), EDX) }, "btr [esi+0x4], edx"},
		{func(a *Asm) { a.BtImm(BTC, RegOp(EDI, 4), 31) }, "btc edi, 0x1f"},
		{func(a *Asm) { a.Bsf(EAX, RegOp(EBX, 4)) }, "bsf eax, ebx"},
		{func(a *Asm) { a.Bsr(ECX, Mem(EBP, -4)) }, "bsr ecx, [ebp-0x4]"},
		{func(a *Asm) { a.Cmpxchg(RegOp(EDX, 4), EBX) }, "cmpxchg edx, ebx"},
		{func(a *Asm) { a.Xadd(Mem(ESI, 0), EAX) }, "xadd [esi], eax"},
		{func(a *Asm) { a.Cwde() }, "cwde"},
		{func(a *Asm) { a.ShiftImm(RCL, RegOp(EAX, 4), 3) }, "rcl eax, 0x3"},
		{func(a *Asm) { a.ShiftImm(RCR, RegOp(EBX, 4), 1) }, "rcr ebx, 0x1"},
	}
	for _, c := range cases {
		a := NewAsm(0)
		c.emit(a)
		in := decodeOne(t, a.Bytes(), 0)
		if got := in.String(); got != c.want {
			t.Errorf("decoded %q, want %q", got, c.want)
		}
	}
}

func TestDecodeShiftDouble(t *testing.T) {
	a := NewAsm(0)
	a.ShiftDoubleImm(SHLD, RegOp(EAX, 4), EBX, 12)
	in := decodeOne(t, a.Bytes(), 0)
	if in.Op != SHLD || in.Dst.Reg != EAX || in.Src.Reg != EBX || in.Src2.Imm != 12 {
		t.Errorf("shld: %v (%+v)", in, in)
	}
	a = NewAsm(0)
	a.ShiftDoubleCL(SHRD, RegOp(ECX, 4), EDX)
	in = decodeOne(t, a.Bytes(), 0)
	if in.Op != SHRD || in.Src2.Kind != KReg || in.Src2.Reg != ECX {
		t.Errorf("shrd cl: %v", in)
	}
}

func TestDecodeRepPrefixes(t *testing.T) {
	in := decodeOne(t, []byte{0xF3, 0xA7}, 0) // REPE CMPSD
	if in.Op != CMPS || !in.Rep || in.RepNE {
		t.Errorf("repe cmpsd: %v rep=%v repne=%v", in, in.Rep, in.RepNE)
	}
	in = decodeOne(t, []byte{0xF2, 0xAE}, 0) // REPNE SCASB
	if in.Op != SCAS || !in.Rep || !in.RepNE || in.OpSize != 1 {
		t.Errorf("repne scasb: %v", in)
	}
}
