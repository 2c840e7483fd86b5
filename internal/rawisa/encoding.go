package rawisa

import (
	"fmt"
	"math"
)

// Word is one 32-bit word of host code: the form translated code has
// from the code generator to the L1 code cache, and the unit the code
// caches are charged in. Instructions are one word in MIPS-like
// formats, except the three that carry a guest PC:
//
//	R-format (3-register ALU):  op:6 | rd:5 | rs:5 | rt:5 | 0:11
//	I-format (imm ALU, loads):  op:6 | rd:5 | rs:5 | imm:16
//	B-format (stores, branch):  op:6 | rt:5 | rs:5 | imm:16
//	Jump:                       op:6 | off:26
//	EXITI/CHAIN/ASSIST:         op:6 | 0:26  +  guest PC word
//
// Rs sits in one place in every format and Rd in one place in every
// format that has it; a B-format instruction has no Rd and keeps its Rt
// there (RtB). The 16-bit immediate is extended per opcode: zero for
// the logical ops and LUI, a 5-bit count for the immediate shifts, sign
// for everything else. The code generator materializes wider constants
// with LUI+ORI pairs, as on MIPS.
type Word uint32

// Immediate range limits for the I-format.
const (
	MaxSImm = 1<<15 - 1
	MinSImm = -(1 << 15)
	MaxUImm = 1<<16 - 1
)

// FitsSImm reports whether v fits the signed 16-bit immediate field.
func FitsSImm(v int32) bool { return v >= MinSImm && v <= MaxSImm }

// Op returns the word's opcode.
func (w Word) Op() Op { return Op(w >> 26) }

// Rd returns the destination register of an R- or I-format word.
func (w Word) Rd() uint8 { return uint8(w >> 21 & 31) }

// Rs returns the first source register.
func (w Word) Rs() uint8 { return uint8(w >> 16 & 31) }

// Rt returns the second source register of an R-format word.
func (w Word) Rt() uint8 { return uint8(w >> 11 & 31) }

// RtB returns the second source register of a B-format word: a store's
// value, a two-register branch's other operand.
func (w Word) RtB() uint8 { return uint8(w >> 21 & 31) }

// SImm returns the 16-bit immediate sign-extended.
func (w Word) SImm() int32 { return int32(int16(w)) }

// UImm returns the 16-bit immediate zero-extended.
func (w Word) UImm() uint32 { return uint32(uint16(w)) }

// JOff returns a jump's 26-bit offset, sign-extended.
func (w Word) JOff() int32 { return int32(w<<6) >> 6 }

// JumpWord returns a J to off words from the word after it, or false
// if off does not fit the 26-bit field.
func JumpWord(off int) (Word, bool) {
	if off < -(1<<25) || off >= 1<<25 {
		return 0, false
	}
	return Word(J)<<26 | Word(off)&(1<<26-1), true
}

type encKind uint8

const (
	encBad encKind = iota // not an opcode
	encR                  // rd, rs, rt
	encI                  // rd, rs, imm16
	encB                  // rt, rs, off16
	encJ                  // off26
	encX                  // two-word (EXITI/CHAIN/ASSIST)
	encN                  // no operands
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
	return encBad
}

// format is how Append encodes an opcode: the bits each register field
// may not have set (all of them for a field the format does not carry,
// those past r31 for one it does), where Rt goes, which bits of Imm the
// first word keeps, and the values Imm may take — the ones its field
// decodes to. Indexed by Op, so that an encode is a lookup, one test
// and a few shifts; codegen encodes every instruction it emits.
type format struct {
	kind                encKind
	rdBad, rsBad, rtBad uint8
	rtShift             uint8
	immMask             Word
	lo, hi              int32
}

var formats = func() (t [256]format) {
	const carried, absent = 0xe0, 0xff
	for op := Op(0); op < numOps; op++ {
		f := format{kind: kindOf(op), rdBad: absent, rsBad: absent, rtBad: absent, rtShift: 11}
		switch f.kind {
		case encR:
			f.rdBad, f.rsBad, f.rtBad = carried, carried, carried
		case encI:
			f.rdBad, f.rsBad = carried, carried
			f.immMask, f.lo, f.hi = 0xffff, MinSImm, MaxSImm
			switch op {
			case ANDI, ORI, XORI, LUI:
				f.lo, f.hi = 0, MaxUImm
			case SLLI, SRLI, SRAI:
				f.lo, f.hi = 0, 31
			}
		case encB:
			f.rsBad, f.rtBad, f.rtShift = carried, carried, 21
			f.immMask, f.lo, f.hi = 0xffff, MinSImm, MaxSImm
		case encJ:
			f.immMask, f.lo, f.hi = 1<<26-1, -(1 << 25), 1<<25-1
		case encX:
			f.lo, f.hi = math.MinInt32, math.MaxInt32
		}
		t[op] = f
	}
	return t
}()

// Words returns the encoded length of an instruction with this opcode:
// two words for the three that carry a guest PC, one for the rest.
func (o Op) Words() int {
	if o == EXITI || o == CHAIN || o == ASSIST {
		return 2
	}
	return 1
}

// Append appends the encoding of in to code. It fails, appending
// nothing, unless the words decode to exactly in: a register past r31,
// an immediate outside its field, or a field the format does not carry
// set to anything but zero.
func Append(code []Word, in *Inst) ([]Word, error) {
	f := &formats[in.Op]
	if f.kind == encBad || in.Rd&f.rdBad|in.Rs&f.rsBad|in.Rt&f.rtBad != 0 || in.Imm < f.lo || in.Imm > f.hi {
		return code, noEncoding(in)
	}
	w := Word(in.Op)<<26 | Word(in.Rd)<<21 | Word(in.Rs)<<16 | Word(in.Rt)<<f.rtShift | Word(in.Imm)&f.immMask
	if f.kind == encX {
		return append(code, w, Word(in.GuestPC())), nil
	}
	return append(code, w), nil
}

// noEncoding is Append's error, kept out of line so that Append's fast
// path holds in registers.
//
//go:noinline
func noEncoding(in *Inst) error { return fmt.Errorf("rawisa: %v (%+v) has no encoding", *in, *in) }

// Encode encodes a code sequence whose branch offsets already count
// words.
func Encode(code []Inst) ([]Word, error) {
	out := make([]Word, 0, len(code)+len(code)/8)
	for i := range code {
		var err error
		if out, err = Append(out, &code[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Decode decodes the instruction starting at w[i], returning it and the
// number of words it takes.
func Decode(w []Word, i int) (Inst, int, error) {
	if i < 0 || i >= len(w) {
		return Inst{}, 0, fmt.Errorf("rawisa: decode past end (%d/%d)", i, len(w))
	}
	word := w[i]
	op := word.Op()
	if op >= numOps {
		return Inst{}, 0, fmt.Errorf("rawisa: bad opcode %d at word %d", op, i)
	}
	in := Inst{Op: op}
	switch formats[op].kind {
	case encN:
	case encR:
		in.Rd, in.Rs, in.Rt = word.Rd(), word.Rs(), word.Rt()
	case encI:
		in.Rd, in.Rs = word.Rd(), word.Rs()
		switch op {
		case ANDI, ORI, XORI, LUI:
			in.Imm = int32(word.UImm())
		case SLLI, SRLI, SRAI:
			in.Imm = int32(word.UImm() & 31)
		default:
			in.Imm = word.SImm()
		}
	case encB:
		in.Rt, in.Rs, in.Imm = word.RtB(), word.Rs(), word.SImm()
	case encJ:
		in.Imm = word.JOff()
	case encX:
		if i+1 >= len(w) {
			return Inst{}, 0, fmt.Errorf("rawisa: truncated two-word op at %d", i)
		}
		in.Imm = int32(w[i+1])
		return in, 2, nil
	}
	return in, 1, nil
}

// DecodeAll decodes a full code sequence.
func DecodeAll(w []Word) ([]Inst, error) {
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

// Disassemble renders a code sequence one instruction per line, each
// at its word index.
func Disassemble(code []Word) string {
	out := ""
	for i := 0; i < len(code); {
		in, n, err := Decode(code, i)
		if err != nil {
			return out + fmt.Sprintf("%4d: %#08x ; %v\n", i, uint32(code[i]), err)
		}
		out += fmt.Sprintf("%4d: %s\n", i, in.String())
		i += n
	}
	return out
}
