package x86

import "fmt"

// DecodeError describes a byte sequence the decoder does not handle.
type DecodeError struct {
	Addr   uint32
	Opcode byte
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("x86: cannot decode at %#x (opcode %#02x): %s", e.Addr, e.Opcode, e.Reason)
}

// MaxInstLen is the architectural limit on instruction length.
const MaxInstLen = 15

type decoder struct {
	code []byte
	addr uint32
	pos  int
	err  error
}

func (d *decoder) fail(op byte, reason string) {
	if d.err == nil {
		d.err = &DecodeError{Addr: d.addr, Opcode: op, Reason: reason}
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.code) || d.pos >= MaxInstLen+4 {
		d.fail(0, "truncated instruction")
		return 0
	}
	b := d.code[d.pos]
	d.pos++
	return b
}

func (d *decoder) u16() uint16 {
	lo := uint16(d.u8())
	hi := uint16(d.u8())
	return hi<<8 | lo
}

func (d *decoder) u32() uint32 {
	lo := uint32(d.u16())
	hi := uint32(d.u16())
	return hi<<16 | lo
}

func (d *decoder) s8() int32  { return int32(int8(d.u8())) }
func (d *decoder) s32() int32 { return int32(d.u32()) }

// imm reads an immediate of the operand size, sign-extending to 32 bits.
func (d *decoder) imm(size uint8) int32 {
	switch size {
	case 1:
		return d.s8()
	case 2:
		return int32(int16(d.u16()))
	default:
		return d.s32()
	}
}

// modRM decodes a ModRM byte (plus SIB/displacement) into the /reg
// field and the r/m operand at the given access size.
func (d *decoder) modRM(size uint8) (reg Reg, rm Operand) {
	b := d.u8()
	mod := b >> 6
	reg = Reg(b >> 3 & 7)
	rmBits := b & 7

	if mod == 3 {
		return reg, RegOp(Reg(rmBits), size)
	}

	m := Operand{Kind: KMem, Size: size, Base: NoIndex, Index: NoIndex, Scale: 1}
	switch {
	case rmBits == 4: // SIB
		sib := d.u8()
		scaleBits := sib >> 6
		index := sib >> 3 & 7
		base := sib & 7
		if index != 4 {
			m.Index = int8(index)
			m.Scale = 1 << scaleBits
		}
		if base == 5 && mod == 0 {
			m.Disp = d.s32()
		} else {
			m.Base = int8(base)
		}
	case rmBits == 5 && mod == 0:
		m.Disp = d.s32()
	default:
		m.Base = int8(rmBits)
	}
	switch mod {
	case 1:
		m.Disp += d.s8()
	case 2:
		m.Disp += d.s32()
	}
	return reg, m
}

// grp1Ops maps the /reg field of opcode group 1 (0x80/0x81/0x83).
var grp1Ops = [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// grp2Ops maps the /reg field of the shift group (0xC0/0xC1/0xD0-0xD3).
var grp2Ops = [8]Op{ROL, ROR, RCL, RCR, SHL, SHR, SHL, SAR}

// Decode decodes the instruction at the start of code, which begins at
// guest address addr. The slice should extend at least MaxInstLen bytes
// past the instruction start when available; at most MaxInstLen+4 bytes
// of it are read, so a longer window decodes the same. Decode only
// reads code and the Inst it returns holds no reference to it, which is
// what lets a caller pass a view of live guest memory.
func Decode(code []byte, addr uint32) (Inst, error) {
	d := &decoder{code: code, addr: addr}
	in := Inst{Addr: addr}
	opSize := uint8(4)

	// Prefixes.
	var op byte
prefixes:
	for {
		op = d.u8()
		switch op {
		case 0x66:
			opSize = 2
		case 0xF3:
			in.Rep = true
		case 0xF2:
			in.Rep = true
			in.RepNE = true
		case 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65:
			// Segment overrides: flat memory model, ignored.
		case 0x67:
			d.fail(op, "16-bit address size not supported")
			break prefixes
		case 0xF0:
			// LOCK: single-threaded guest, ignored.
		default:
			break prefixes
		}
		if d.err != nil {
			break
		}
	}
	if d.err != nil {
		return in, d.err
	}
	in.OpSize = opSize

	switch {
	// ALU families: 0x00-0x3D with the classic 6-opcode pattern
	// (the op&7 ∈ {6,7} slots are segment push/pop and BCD ops,
	// which fall through to "unsupported").
	case op < 0x40 && op&7 < 6:
		alu := grp1Ops[op>>3&7]
		switch op & 7 {
		case 0: // r/m8, r8
			reg, rm := d.modRM(1)
			in.Op, in.Dst, in.Src = alu, rm, RegOp(reg, 1)
		case 1: // r/m, r
			reg, rm := d.modRM(opSize)
			in.Op, in.Dst, in.Src = alu, rm, RegOp(reg, opSize)
		case 2: // r8, r/m8
			reg, rm := d.modRM(1)
			in.Op, in.Dst, in.Src = alu, RegOp(reg, 1), rm
		case 3: // r, r/m
			reg, rm := d.modRM(opSize)
			in.Op, in.Dst, in.Src = alu, RegOp(reg, opSize), rm
		case 4: // AL, imm8
			in.Op, in.Dst, in.Src = alu, RegOp(EAX, 1), ImmOp(d.s8(), 1)
		case 5: // eAX, imm
			in.Op, in.Dst, in.Src = alu, RegOp(EAX, opSize), ImmOp(d.imm(opSize), opSize)
		}

	case op >= 0x40 && op <= 0x47:
		in.Op, in.Dst = INC, RegOp(Reg(op-0x40), opSize)
	case op >= 0x48 && op <= 0x4F:
		in.Op, in.Dst = DEC, RegOp(Reg(op-0x48), opSize)
	case op >= 0x50 && op <= 0x57:
		in.Op, in.Dst = PUSH, RegOp(Reg(op-0x50), 4)
	case op >= 0x58 && op <= 0x5F:
		in.Op, in.Dst = POP, RegOp(Reg(op-0x58), 4)

	case op == 0x68:
		in.Op, in.Dst = PUSH, ImmOp(d.s32(), 4)
	case op == 0x6A:
		in.Op, in.Dst = PUSH, ImmOp(d.s8(), 4)
	case op == 0x69: // IMUL r, r/m, imm32
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src, in.Src2 = IMUL2, RegOp(reg, opSize), rm, ImmOp(d.imm(opSize), opSize)
	case op == 0x6B: // IMUL r, r/m, imm8
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src, in.Src2 = IMUL2, RegOp(reg, opSize), rm, ImmOp(d.s8(), 1)

	case op >= 0x70 && op <= 0x7F:
		in.Op, in.Cond = JCC, Cond(op&15)
		in.Src = ImmOp(d.s8(), 1)

	case op == 0x80: // grp1 r/m8, imm8
		reg, rm := d.modRM(1)
		in.Op, in.Dst, in.Src = grp1Ops[reg], rm, ImmOp(d.s8(), 1)
	case op == 0x81:
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = grp1Ops[reg], rm, ImmOp(d.imm(opSize), opSize)
	case op == 0x83: // grp1 r/m, imm8 sign-extended
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = grp1Ops[reg], rm, ImmOp(d.s8(), 1)

	case op == 0x84:
		reg, rm := d.modRM(1)
		in.Op, in.Dst, in.Src = TEST, rm, RegOp(reg, 1)
	case op == 0x85:
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = TEST, rm, RegOp(reg, opSize)
	case op == 0x86:
		reg, rm := d.modRM(1)
		in.Op, in.Dst, in.Src = XCHG, rm, RegOp(reg, 1)
	case op == 0x87:
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = XCHG, rm, RegOp(reg, opSize)

	case op == 0x88:
		reg, rm := d.modRM(1)
		in.Op, in.Dst, in.Src = MOV, rm, RegOp(reg, 1)
	case op == 0x89:
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = MOV, rm, RegOp(reg, opSize)
	case op == 0x8A:
		reg, rm := d.modRM(1)
		in.Op, in.Dst, in.Src = MOV, RegOp(reg, 1), rm
	case op == 0x8B:
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = MOV, RegOp(reg, opSize), rm
	case op == 0x8D:
		reg, rm := d.modRM(opSize)
		if rm.Kind != KMem {
			d.fail(op, "LEA with register source")
			break
		}
		in.Op, in.Dst, in.Src = LEA, RegOp(reg, opSize), rm
	case op == 0x8F:
		reg, rm := d.modRM(4)
		if reg != 0 {
			d.fail(op, "bad 0x8F extension")
			break
		}
		in.Op, in.Dst = POP, rm

	case op == 0x90:
		in.Op = NOPOP
	case op >= 0x91 && op <= 0x97:
		in.Op, in.Dst, in.Src = XCHG, RegOp(EAX, opSize), RegOp(Reg(op-0x90), opSize)
	case op == 0x98:
		in.Op = CWDE // CBW when the operand-size prefix selects 16 bits
	case op == 0x99:
		in.Op = CDQ
	case op == 0x9E:
		in.Op = SAHF
	case op == 0x9F:
		in.Op = LAHF

	case op >= 0xA0 && op <= 0xA3: // MOV AL/eAX, moffs and back
		size := opSize
		if op&1 == 0 {
			size = 1
		}
		acc, moffs := RegOp(EAX, size), MemOp(NoIndex, NoIndex, 1, d.s32(), size)
		in.Op, in.Dst, in.Src = MOV, acc, moffs
		if op >= 0xA2 {
			in.Dst, in.Src = moffs, acc
		}

	case op == 0xA4 || op == 0xA5:
		in.Op = MOVS
		if op == 0xA4 {
			in.OpSize = 1
		}
	case op == 0xA6 || op == 0xA7:
		in.Op = CMPS
		if op == 0xA6 {
			in.OpSize = 1
		}
	case op == 0xA8:
		in.Op, in.Dst, in.Src = TEST, RegOp(EAX, 1), ImmOp(d.s8(), 1)
	case op == 0xA9:
		in.Op, in.Dst, in.Src = TEST, RegOp(EAX, opSize), ImmOp(d.imm(opSize), opSize)
	case op == 0xAA || op == 0xAB:
		in.Op = STOS
		if op == 0xAA {
			in.OpSize = 1
		}
	case op == 0xAC || op == 0xAD:
		in.Op = LODS
		if op == 0xAC {
			in.OpSize = 1
		}
	case op == 0xAE || op == 0xAF:
		in.Op = SCAS
		if op == 0xAE {
			in.OpSize = 1
		}

	case op >= 0xB0 && op <= 0xB7:
		in.Op, in.Dst, in.Src = MOV, RegOp(Reg(op-0xB0), 1), ImmOp(d.s8(), 1)
	case op >= 0xB8 && op <= 0xBF:
		in.Op, in.Dst, in.Src = MOV, RegOp(Reg(op-0xB8), opSize), ImmOp(d.imm(opSize), opSize)

	case op == 0xC0 || op == 0xC1: // shift r/m, imm8
		size := uint8(1)
		if op == 0xC1 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		in.Op, in.Dst, in.Src = grp2Ops[reg], rm, ImmOp(int32(d.u8()&31), 1)
	case op == 0xD0 || op == 0xD1: // shift r/m, 1
		size := uint8(1)
		if op == 0xD1 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		in.Op, in.Dst, in.Src = grp2Ops[reg], rm, ImmOp(1, 1)
	case op == 0xD2 || op == 0xD3: // shift r/m, CL
		size := uint8(1)
		if op == 0xD3 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		in.Op, in.Dst, in.Src = grp2Ops[reg], rm, RegOp(ECX, 1)

	case op == 0xC2:
		in.Op, in.Dst = RET, ImmOp(int32(d.u16()), 2)
	case op == 0xC3:
		in.Op = RET
	case op == 0xC6:
		reg, rm := d.modRM(1)
		if reg != 0 {
			d.fail(op, "bad 0xC6 extension")
			break
		}
		in.Op, in.Dst, in.Src = MOV, rm, ImmOp(d.s8(), 1)
	case op == 0xC7:
		reg, rm := d.modRM(opSize)
		if reg != 0 {
			d.fail(op, "bad 0xC7 extension")
			break
		}
		in.Op, in.Dst, in.Src = MOV, rm, ImmOp(d.imm(opSize), opSize)
	case op == 0xC9:
		in.Op = LEAVE
	case op == 0xCD:
		in.Op, in.Dst = INT, ImmOp(int32(d.u8()), 1)

	case op == 0xE8:
		in.Op, in.Src = CALL, ImmOp(d.s32(), 4)
	case op == 0xE9:
		in.Op, in.Src = JMP, ImmOp(d.s32(), 4)
	case op == 0xEB:
		in.Op, in.Src = JMP, ImmOp(d.s8(), 1)

	case op == 0xF4:
		in.Op = HLT
	case op == 0xF5:
		in.Op = CMC
	case op == 0xF8:
		in.Op = CLC
	case op == 0xF9:
		in.Op = STC
	case op == 0xFC:
		in.Op = CLD
	case op == 0xFD:
		in.Op = STD

	case op == 0xF6 || op == 0xF7: // group 3
		size := uint8(1)
		if op == 0xF7 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		switch reg {
		case 0, 1: // TEST r/m, imm
			in.Op, in.Dst, in.Src = TEST, rm, ImmOp(d.imm(size), size)
		case 2:
			in.Op, in.Dst = NOT, rm
		case 3:
			in.Op, in.Dst = NEG, rm
		case 4:
			in.Op, in.Src = MUL, rm
			in.OpSize = size
		case 5:
			in.Op, in.Src = IMUL, rm
			in.OpSize = size
		case 6:
			in.Op, in.Src = DIV, rm
			in.OpSize = size
		case 7:
			in.Op, in.Src = IDIV, rm
			in.OpSize = size
		}

	case op == 0xFE: // group 4
		reg, rm := d.modRM(1)
		switch reg {
		case 0:
			in.Op, in.Dst = INC, rm
		case 1:
			in.Op, in.Dst = DEC, rm
		default:
			d.fail(op, "bad 0xFE extension")
		}
	case op == 0xFF: // group 5
		reg, rm := d.modRM(4)
		switch reg {
		case 0:
			in.Op, in.Dst = INC, rm
			in.Dst.Size = opSize
		case 1:
			in.Op, in.Dst = DEC, rm
			in.Dst.Size = opSize
		case 2:
			in.Op, in.Src = CALLIND, rm
		case 4:
			in.Op, in.Src = JMPIND, rm
		case 6:
			in.Op, in.Dst = PUSH, rm
		default:
			d.fail(op, "bad 0xFF extension")
		}

	case op == 0x0F:
		d.decode0F(&in, opSize)

	default:
		d.fail(op, "unsupported opcode")
	}

	if d.err != nil {
		return in, d.err
	}
	if d.pos > MaxInstLen {
		d.fail(op, "instruction too long")
		return in, d.err
	}
	in.Len = uint8(d.pos)
	return in, nil
}

// decode0F handles the two-byte opcode map.
func (d *decoder) decode0F(in *Inst, opSize uint8) {
	op := d.u8()
	switch {
	case op >= 0x40 && op <= 0x4F: // CMOVcc
		reg, rm := d.modRM(opSize)
		in.Op, in.Cond, in.Dst, in.Src = CMOVCC, Cond(op&15), RegOp(reg, opSize), rm
	case op >= 0x80 && op <= 0x8F: // Jcc rel32
		in.Op, in.Cond = JCC, Cond(op&15)
		in.Src = ImmOp(d.s32(), 4)
	case op >= 0x90 && op <= 0x9F: // SETcc r/m8
		_, rm := d.modRM(1)
		in.Op, in.Cond, in.Dst = SETCC, Cond(op&15), rm
	case op == 0xA3 || op == 0xAB || op == 0xB3 || op == 0xBB:
		// BT/BTS/BTR/BTC r/m, r
		reg, rm := d.modRM(opSize)
		ops := map[byte]Op{0xA3: BT, 0xAB: BTS, 0xB3: BTR, 0xBB: BTC}
		in.Op, in.Dst, in.Src = ops[op], rm, RegOp(reg, opSize)
	case op == 0xBA: // BT group with imm8 bit offset
		reg, rm := d.modRM(opSize)
		ops := [8]Op{INVALID, INVALID, INVALID, INVALID, BT, BTS, BTR, BTC}
		if ops[reg] == INVALID {
			d.fail(op, "bad 0F BA extension")
			break
		}
		in.Op, in.Dst, in.Src = ops[reg], rm, ImmOp(int32(d.u8()), 1)
	case op == 0xA4 || op == 0xAC: // SHLD/SHRD r/m, r, imm8
		reg, rm := d.modRM(opSize)
		in.Op = SHLD
		if op == 0xAC {
			in.Op = SHRD
		}
		in.Dst, in.Src, in.Src2 = rm, RegOp(reg, opSize), ImmOp(int32(d.u8()&31), 1)
	case op == 0xA5 || op == 0xAD: // SHLD/SHRD r/m, r, CL
		reg, rm := d.modRM(opSize)
		in.Op = SHLD
		if op == 0xAD {
			in.Op = SHRD
		}
		in.Dst, in.Src, in.Src2 = rm, RegOp(reg, opSize), RegOp(ECX, 1)
	case op == 0xBC: // BSF r, r/m
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = BSF, RegOp(reg, opSize), rm
	case op == 0xBD: // BSR r, r/m
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = BSR, RegOp(reg, opSize), rm
	case op == 0xB0 || op == 0xB1: // CMPXCHG r/m, r
		size := uint8(1)
		if op == 0xB1 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		in.Op, in.Dst, in.Src = CMPXCHG, rm, RegOp(reg, size)
	case op == 0xC0 || op == 0xC1: // XADD r/m, r
		size := uint8(1)
		if op == 0xC1 {
			size = opSize
		}
		reg, rm := d.modRM(size)
		in.Op, in.Dst, in.Src = XADD, rm, RegOp(reg, size)
	case op == 0xAF: // IMUL r, r/m
		reg, rm := d.modRM(opSize)
		in.Op, in.Dst, in.Src = IMUL2, RegOp(reg, opSize), rm
	case op == 0xB6: // MOVZX r, r/m8
		reg, rm := d.modRM(opSize)
		rm.Size = 1
		in.Op, in.Dst, in.Src = MOVZX, RegOp(reg, opSize), rm
	case op == 0xB7: // MOVZX r, r/m16
		reg, rm := d.modRM(opSize)
		rm.Size = 2
		in.Op, in.Dst, in.Src = MOVZX, RegOp(reg, opSize), rm
	case op == 0xBE:
		reg, rm := d.modRM(opSize)
		rm.Size = 1
		in.Op, in.Dst, in.Src = MOVSX, RegOp(reg, opSize), rm
	case op == 0xBF:
		reg, rm := d.modRM(opSize)
		rm.Size = 2
		in.Op, in.Dst, in.Src = MOVSX, RegOp(reg, opSize), rm
	case op >= 0xC8 && op <= 0xCF:
		in.Op, in.Dst = BSWAP, RegOp(Reg(op-0xC8), 4)
	case op == 0x1F: // multi-byte NOP
		_, _ = d.modRM(opSize)
		in.Op = NOPOP
	default:
		d.fail(op, "unsupported 0F opcode")
	}
}
