package rawisa

import "fmt"

// Binary encoding. Instructions are 32-bit words in MIPS-like formats:
//
//	R-format (3-register ALU):  op:6 | rd:5 | rs:5 | rt:5 | 0:11
//	I-format (imm ALU, memory): op:6 | rd:5 | rs:5 | imm:16
//	Branch:                     op:6 | rs:5 | rt:5 | off:16
//	Jump:                       op:6 | off:26
//	EXITI/CHAIN/ASSIST:         op:6 | 0:26  +  guestPC word
//
// Immediates are 16 bits (sign- or zero-extended per op, exactly as the
// mnemonic-level semantics state); the code generator materializes wider
// constants with LUI+ORI pairs, as on MIPS.

// Immediate range limits for the I-format.
const (
	MaxSImm = 1<<15 - 1
	MinSImm = -(1 << 15)
	MaxUImm = 1<<16 - 1
)

// FitsSImm reports whether v fits the signed 16-bit immediate field.
func FitsSImm(v int32) bool { return v >= MinSImm && v <= MaxSImm }

// FitsUImm reports whether v fits the unsigned 16-bit immediate field.
func FitsUImm(v int32) bool { return v >= 0 && v <= MaxUImm }

type encKind int

const (
	encR encKind = iota
	encI         // rd, rs, imm16
	encB         // rs, rt, off16
	encJ         // off26
	encX         // two-word (EXITI/CHAIN/ASSIST)
	encN         // no operands
)

func kindOf(op Op) encKind {
	switch op {
	case NOP, SYSC:
		return encN
	case LUI, ADDI, ANDI, ORI, XORI, SLTI, SLTIU, SLLI, SRLI, SRAI,
		LW, GLB, GLBU, GLH, GLHU, GLW:
		return encI
	case SW, GSB, GSH, GSW:
		return encB // rs = base, rt = value, imm = disp
	case ADD, SUB, AND, OR, XOR, NOR, SLT, SLTU, SLL, SRL, SRA,
		MULT, MULTU, DIV, DIVU, MFHI, MFLO, JR, EXITR:
		return encR
	case BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ:
		return encB
	case J, JAL:
		return encJ
	case EXITI, CHAIN, ASSIST:
		return encX
	}
	return encN
}

// Encode appends the binary encoding of in to w and returns the
// extended slice. It panics if an immediate or target does not fit its
// field; the code generator is responsible for staying in range.
func Encode(w []uint32, in Inst) []uint32 {
	op := uint32(in.Op) << 26
	switch kindOf(in.Op) {
	case encN:
		return append(w, op)
	case encR:
		return append(w, op|uint32(in.Rd)<<21|uint32(in.Rs)<<16|uint32(in.Rt)<<11)
	case encI:
		if !FitsSImm(in.Imm) && !FitsUImm(in.Imm) {
			panic(fmt.Sprintf("rawisa: immediate %d out of range in %v", in.Imm, in))
		}
		return append(w, op|uint32(in.Rd)<<21|uint32(in.Rs)<<16|uint32(uint16(in.Imm)))
	case encB:
		if !FitsSImm(in.Imm) {
			panic(fmt.Sprintf("rawisa: branch offset %d out of range in %v", in.Imm, in))
		}
		return append(w, op|uint32(in.Rs)<<21|uint32(in.Rt)<<16|uint32(uint16(in.Imm)))
	case encJ:
		if in.Imm < -(1<<25) || in.Imm >= 1<<25 {
			panic(fmt.Sprintf("rawisa: jump offset %d out of range", in.Imm))
		}
		return append(w, op|uint32(in.Imm)&(1<<26-1))
	case encX:
		return append(w, op, in.GuestPC())
	}
	panic("rawisa: unreachable")
}

// EncodeAll encodes a code sequence.
func EncodeAll(code []Inst) []uint32 {
	w := make([]uint32, 0, len(code)+4)
	for _, in := range code {
		w = Encode(w, in)
	}
	return w
}

// Decode decodes one instruction starting at w[i], returning the
// instruction and the number of words consumed.
func Decode(w []uint32, i int) (Inst, int, error) {
	if i >= len(w) {
		return Inst{}, 0, fmt.Errorf("rawisa: decode past end (%d/%d)", i, len(w))
	}
	word := w[i]
	op := Op(word >> 26)
	if op >= numOps {
		return Inst{}, 0, fmt.Errorf("rawisa: bad opcode %d at word %d", op, i)
	}
	in := Inst{Op: op}
	switch kindOf(op) {
	case encN:
	case encR:
		in.Rd = uint8(word >> 21 & 31)
		in.Rs = uint8(word >> 16 & 31)
		in.Rt = uint8(word >> 11 & 31)
	case encI:
		in.Rd = uint8(word >> 21 & 31)
		in.Rs = uint8(word >> 16 & 31)
		in.Imm = immValue(op, uint16(word))
	case encB:
		in.Rs = uint8(word >> 21 & 31)
		in.Rt = uint8(word >> 16 & 31)
		in.Imm = int32(int16(uint16(word)))
	case encJ:
		in.Imm = int32(word<<6) >> 6
	case encX:
		if i+1 >= len(w) {
			return Inst{}, 0, fmt.Errorf("rawisa: truncated two-word op at %d", i)
		}
		in.Imm = int32(w[i+1])
		return in, 2, nil
	}
	return in, 1, nil
}

// immValue reproduces the extension convention the assembler-level Inst
// uses: logical ops and LUI carry zero-extended immediates, arithmetic
// and memory ops sign-extended ones, shifts a 5-bit count.
func immValue(op Op, raw uint16) int32 {
	switch op {
	case ANDI, ORI, XORI, LUI:
		return int32(uint32(raw))
	case SLLI, SRLI, SRAI:
		return int32(raw & 31)
	default:
		return int32(int16(raw))
	}
}

// DecodeAll decodes a full code sequence.
func DecodeAll(w []uint32) ([]Inst, error) {
	var out []Inst
	for i := 0; i < len(w); {
		in, n, err := Decode(w, i)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
		i += n
	}
	return out, nil
}
