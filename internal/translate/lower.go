package translate

import (
	"fmt"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
	"tilevm/internal/x86"
)

// hostReg maps a 32-bit guest register to its pinned host register.
func hostReg(r x86.Reg) uint8 { return uint8(r&7) + rawisa.RegEAX }

// lowerer translates one guest basic block to IR.
type lowerer struct {
	bl     *ir.Builder
	kind   ExitKind
	target uint32
	fall   uint32
	back   bool
	ended  bool
}

func (lo *lowerer) finish(guestLen uint32, numGuest int) (Block, error) {
	b, err := lo.bl.Finish(guestLen, numGuest)
	if err != nil {
		return Block{}, err
	}
	return Block{
		Block:         b,
		Kind:          lo.kind,
		Target:        lo.target,
		FallTarget:    lo.fall,
		BackwardTaken: lo.back,
	}, nil
}

// endEarly chains to the given address when the block is cut short.
func (lo *lowerer) endEarly(next uint32) {
	lo.bl.Chain(next)
	lo.kind, lo.target, lo.ended = ExitFall, next, true
}

// computeEA materializes a memory operand's effective address.
func (lo *lowerer) computeEA(o x86.Operand) uint8 {
	bl := lo.bl
	ea := bl.VReg()
	switch {
	case o.Base != x86.NoIndex && o.Index != x86.NoIndex:
		idx := hostReg(x86.Reg(o.Index))
		if o.Scale > 1 {
			bl.OpI(rawisa.SLLI, ea, idx, int32(log2u8(o.Scale)))
			bl.Op3(rawisa.ADD, ea, ea, hostReg(x86.Reg(o.Base)))
		} else {
			bl.Op3(rawisa.ADD, ea, hostReg(x86.Reg(o.Base)), idx)
		}
		if o.Disp != 0 {
			bl.AddImm(ea, ea, o.Disp)
		}
	case o.Base != x86.NoIndex:
		bl.AddImm(ea, hostReg(x86.Reg(o.Base)), o.Disp)
	case o.Index != x86.NoIndex:
		idx := hostReg(x86.Reg(o.Index))
		if o.Scale > 1 {
			bl.OpI(rawisa.SLLI, ea, idx, int32(log2u8(o.Scale)))
		} else {
			bl.Move(ea, idx)
		}
		if o.Disp != 0 {
			bl.AddImm(ea, ea, o.Disp)
		}
	default:
		bl.LoadImm(ea, uint32(o.Disp))
	}
	return ea
}

func log2u8(v uint8) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// readReg8 extracts an 8-bit register value (AL..BH numbering).
func (lo *lowerer) readReg8(r x86.Reg) uint8 {
	bl := lo.bl
	t := bl.VReg()
	if r < 4 {
		bl.OpI(rawisa.ANDI, t, hostReg(r), 0xff)
	} else {
		bl.OpI(rawisa.SRLI, t, hostReg(r-4), 8)
		bl.OpI(rawisa.ANDI, t, t, 0xff)
	}
	return t
}

// writeReg8 merges an 8-bit value into a guest byte register.
func (lo *lowerer) writeReg8(r x86.Reg, v uint8) {
	bl := lo.bl
	masked := bl.VReg()
	bl.OpI(rawisa.ANDI, masked, v, 0xff)
	if r < 4 {
		h := hostReg(r)
		t := bl.VReg()
		bl.OpI(rawisa.SRLI, t, h, 8)
		bl.OpI(rawisa.SLLI, t, t, 8)
		bl.Op3(rawisa.OR, h, t, masked)
	} else {
		h := hostReg(r - 4)
		loPart := bl.VReg()
		hiPart := bl.VReg()
		bl.OpI(rawisa.ANDI, loPart, h, 0xff)
		bl.OpI(rawisa.SRLI, hiPart, h, 16)
		bl.OpI(rawisa.SLLI, hiPart, hiPart, 16)
		bl.OpI(rawisa.SLLI, masked, masked, 8)
		bl.Op3(rawisa.OR, h, hiPart, loPart)
		bl.Op3(rawisa.OR, h, h, masked)
	}
}

// writeReg16 merges a 16-bit value into a guest register.
func (lo *lowerer) writeReg16(r x86.Reg, v uint8) {
	bl := lo.bl
	h := hostReg(r)
	t := bl.VReg()
	masked := bl.VReg()
	bl.OpI(rawisa.ANDI, masked, v, 0xffff&0xffff)
	bl.OpI(rawisa.SRLI, t, h, 16)
	bl.OpI(rawisa.SLLI, t, t, 16)
	bl.Op3(rawisa.OR, h, t, masked)
}

// dst is a prepared destination: for memory operands the effective
// address is computed once and shared between the read (for RMW ops)
// and the write.
type dst struct {
	o  x86.Operand
	ea uint8
}

func (lo *lowerer) prepDst(o x86.Operand) dst {
	d := dst{o: o}
	if o.Kind == x86.KMem {
		d.ea = lo.computeEA(o)
	}
	return d
}

// readDst reads the current value of a prepared destination,
// zero-extended to its size.
func (lo *lowerer) readDst(d dst) uint8 {
	bl := lo.bl
	switch d.o.Kind {
	case x86.KReg:
		switch d.o.Size {
		case 1:
			return lo.readReg8(d.o.Reg)
		case 2:
			t := bl.VReg()
			bl.OpI(rawisa.ANDI, t, hostReg(d.o.Reg), int32(0xffff))
			return t
		default:
			return hostReg(d.o.Reg)
		}
	case x86.KMem:
		t := bl.VReg()
		switch d.o.Size {
		case 1:
			bl.Emit(rawisa.Inst{Op: rawisa.GLBU, Rd: t, Rs: d.ea})
		case 2:
			bl.Emit(rawisa.Inst{Op: rawisa.GLHU, Rd: t, Rs: d.ea})
		default:
			bl.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: t, Rs: d.ea})
		}
		return t
	}
	panic("translate: readDst of non-lvalue")
}

// writeDst stores a value to a prepared destination.
func (lo *lowerer) writeDst(d dst, v uint8) {
	bl := lo.bl
	switch d.o.Kind {
	case x86.KReg:
		switch d.o.Size {
		case 1:
			lo.writeReg8(d.o.Reg, v)
		case 2:
			lo.writeReg16(d.o.Reg, v)
		default:
			bl.Move(hostReg(d.o.Reg), v)
		}
	case x86.KMem:
		switch d.o.Size {
		case 1:
			bl.Emit(rawisa.Inst{Op: rawisa.GSB, Rs: d.ea, Rt: v})
		case 2:
			bl.Emit(rawisa.Inst{Op: rawisa.GSH, Rs: d.ea, Rt: v})
		default:
			bl.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: d.ea, Rt: v})
		}
	default:
		panic("translate: writeDst of non-lvalue")
	}
}

// readVal reads any operand, zero-extended to its size.
func (lo *lowerer) readVal(o x86.Operand) uint8 {
	bl := lo.bl
	switch o.Kind {
	case x86.KImm:
		t := bl.VReg()
		bl.LoadImm(t, uint32(o.Imm)&x86.SizeMask(o.Size))
		return t
	case x86.KReg, x86.KMem:
		return lo.readDst(lo.prepDst(o))
	}
	panic("translate: readVal of empty operand")
}

// readValSigned reads an operand sign-extended from its size.
func (lo *lowerer) readValSigned(o x86.Operand) uint8 {
	bl := lo.bl
	if o.Kind == x86.KMem && o.Size != 4 {
		ea := lo.computeEA(o)
		t := bl.VReg()
		op := rawisa.GLB
		if o.Size == 2 {
			op = rawisa.GLH
		}
		bl.Emit(rawisa.Inst{Op: op, Rd: t, Rs: ea})
		return t
	}
	v := lo.readVal(o)
	if o.Size == 4 {
		return v
	}
	t := bl.VReg()
	sh := int32(32 - int(o.Size)*8)
	bl.OpI(rawisa.SLLI, t, v, sh)
	bl.OpI(rawisa.SRAI, t, t, sh)
	return t
}

// assist emits an interpreter-assist for the instruction.
func (lo *lowerer) assist(in *x86.Inst) {
	lo.bl.Emit(rawisa.Inst{Op: rawisa.ASSIST, Target: in.Addr})
}

// push32 emits a push of the value in register v.
func (lo *lowerer) push32(v uint8) {
	bl := lo.bl
	sp := hostReg(x86.ESP)
	bl.OpI(rawisa.ADDI, sp, sp, -4)
	bl.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: sp, Rt: v})
}

// pop32 emits a pop into a fresh register.
func (lo *lowerer) pop32() uint8 {
	bl := lo.bl
	sp := hostReg(x86.ESP)
	t := bl.VReg()
	bl.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: t, Rs: sp})
	bl.OpI(rawisa.ADDI, sp, sp, 4)
	return t
}

// lower translates one guest instruction; live is the set of flag bits
// observable after it.
func (lo *lowerer) lower(in *x86.Inst, live uint32) error {
	bl := lo.bl
	switch in.Op {
	case x86.MOV:
		if in.Src.Kind == x86.KImm && in.Dst.Kind == x86.KReg && in.Dst.Size == 4 {
			bl.LoadImm(hostReg(in.Dst.Reg), uint32(in.Src.Imm))
			return nil
		}
		d := lo.prepDst(in.Dst)
		v := lo.readVal(in.Src)
		lo.writeDst(d, v)

	case x86.MOVZX:
		v := lo.readVal(in.Src)
		lo.writeDst(lo.prepDst(in.Dst), v)

	case x86.MOVSX:
		v := lo.readValSigned(in.Src)
		lo.writeDst(lo.prepDst(in.Dst), v)

	case x86.LEA:
		ea := lo.computeEA(in.Src)
		lo.writeDst(lo.prepDst(in.Dst), ea)

	case x86.XCHG:
		d1 := lo.prepDst(in.Dst)
		d2 := lo.prepDst(in.Src)
		a := lo.readDst(d1)
		b := lo.readDst(d2)
		lo.writeDst(d1, b)
		lo.writeDst(d2, a)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.CMP:
		lo.lowerAddSub(in, live)

	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		lo.lowerLogic(in, live)

	case x86.NOT:
		d := lo.prepDst(in.Dst)
		a := lo.readDst(d)
		r := bl.VReg()
		if in.Dst.Size == 4 {
			bl.Op3(rawisa.NOR, r, a, rawisa.RegZero)
		} else {
			bl.OpI(rawisa.XORI, r, a, int32(x86.SizeMask(in.Dst.Size)))
		}
		lo.writeDst(d, r)

	case x86.NEG:
		d := lo.prepDst(in.Dst)
		a := lo.readDst(d)
		r := bl.VReg()
		bl.Op3(rawisa.SUB, r, rawisa.RegZero, a)
		if in.Dst.Size != 4 {
			bl.OpI(rawisa.ANDI, r, r, int32(x86.SizeMask(in.Dst.Size)))
		}
		emitArithFlags(bl, arithFlags{a: rawisa.RegZero, b: a, r: r, sum: r, cin: 0xff, size: in.Dst.Size, sub: true}, live)
		lo.writeDst(d, r)

	case x86.INC, x86.DEC:
		d := lo.prepDst(in.Dst)
		a := lo.readDst(d)
		r := bl.VReg()
		one := bl.VReg()
		bl.OpI(rawisa.ADDI, one, rawisa.RegZero, 1)
		sum := r
		sub := in.Op == x86.DEC
		if sub {
			bl.Op3(rawisa.SUB, r, a, one)
		} else {
			bl.Op3(rawisa.ADD, r, a, one)
		}
		if in.Dst.Size != 4 {
			sum = r
			m := bl.VReg()
			bl.OpI(rawisa.ANDI, m, r, int32(x86.SizeMask(in.Dst.Size)))
			r = m
		}
		emitArithFlags(bl, arithFlags{a: a, b: one, r: r, sum: sum, cin: 0xff, size: in.Dst.Size, sub: sub},
			live&^x86.FlagCF)
		lo.writeDst(d, r)

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		lo.lowerShift(in, live)

	case x86.IMUL, x86.MUL:
		if in.OpSize != 4 {
			lo.assist(in)
			return nil
		}
		lo.lowerWideMul(in, live)

	case x86.IMUL2:
		lo.lowerIMul2(in, live)

	case x86.DIV, x86.IDIV:
		lo.assist(in)

	case x86.CDQ:
		bl.OpI(rawisa.SRAI, hostReg(x86.EDX), hostReg(x86.EAX), 31)

	case x86.BSWAP:
		h := hostReg(in.Dst.Reg)
		t1 := bl.VReg()
		t2 := bl.VReg()
		t3 := bl.VReg()
		bl.OpI(rawisa.SLLI, t1, h, 24)
		bl.OpI(rawisa.SRLI, t2, h, 24)
		bl.Op3(rawisa.OR, t1, t1, t2)
		bl.OpI(rawisa.SRLI, t2, h, 8)
		bl.OpI(rawisa.ANDI, t2, t2, 0xff00)
		bl.OpI(rawisa.ANDI, t3, h, 0xff00)
		bl.OpI(rawisa.SLLI, t3, t3, 8)
		bl.Op3(rawisa.OR, t1, t1, t2)
		bl.Op3(rawisa.OR, h, t1, t3)

	case x86.PUSH:
		v := lo.readVal(in.Dst)
		lo.push32(v)

	case x86.POP:
		v := lo.pop32()
		lo.writeDst(lo.prepDst(in.Dst), v)

	case x86.LEAVE:
		sp, bp := hostReg(x86.ESP), hostReg(x86.EBP)
		bl.Move(sp, bp)
		v := lo.pop32()
		bl.Move(bp, v)

	case x86.CALL:
		next := bl.VReg()
		bl.LoadImm(next, in.Next())
		lo.push32(next)
		bl.Chain(in.BranchTarget())
		lo.kind, lo.target, lo.fall, lo.ended = ExitCall, in.BranchTarget(), in.Next(), true

	case x86.CALLIND:
		tgt := lo.readVal(in.Src)
		next := bl.VReg()
		bl.LoadImm(next, in.Next())
		lo.push32(next)
		bl.ExitReg(tgt)
		lo.kind, lo.fall, lo.ended = ExitIndirect, in.Next(), true

	case x86.RET:
		t := lo.pop32()
		if in.Dst.Kind == x86.KImm && in.Dst.Imm != 0 {
			sp := hostReg(x86.ESP)
			bl.AddImm(sp, sp, in.Dst.Imm)
		}
		bl.ExitReg(t)
		lo.kind, lo.ended = ExitRet, true

	case x86.JMP:
		bl.Chain(in.BranchTarget())
		lo.kind, lo.target, lo.ended = ExitFall, in.BranchTarget(), true

	case x86.JMPIND:
		t := lo.readVal(in.Src)
		bl.ExitReg(t)
		lo.kind, lo.ended = ExitIndirect, true

	case x86.JCC:
		t := condTest(bl, in.Cond)
		taken := bl.NewLabel()
		brOp := rawisa.BNE
		if in.Cond&1 != 0 {
			brOp = rawisa.BEQ
		}
		bl.EmitBranch(rawisa.Inst{Op: brOp, Rs: t, Rt: rawisa.RegZero}, taken)
		bl.Chain(in.Next())
		bl.Bind(taken)
		bl.Chain(in.BranchTarget())
		lo.kind = ExitBranch
		lo.target, lo.fall = in.BranchTarget(), in.Next()
		lo.back = in.BranchTarget() <= in.Addr
		lo.ended = true

	case x86.SETCC:
		t := condTest(bl, in.Cond)
		r := bl.VReg()
		bl.Op3(rawisa.SLTU, r, rawisa.RegZero, t)
		if in.Cond&1 != 0 {
			bl.OpI(rawisa.XORI, r, r, 1)
		}
		lo.writeDst(lo.prepDst(in.Dst), r)

	case x86.CMOVCC:
		t := condTest(bl, in.Cond)
		skip := bl.NewLabel()
		brOp := rawisa.BEQ // skip when base cond false
		if in.Cond&1 != 0 {
			brOp = rawisa.BNE
		}
		bl.EmitBranch(rawisa.Inst{Op: brOp, Rs: t, Rt: rawisa.RegZero}, skip)
		v := lo.readVal(in.Src)
		lo.writeDst(lo.prepDst(in.Dst), v)
		bl.Bind(skip)

	case x86.MOVS, x86.STOS, x86.LODS, x86.SCAS, x86.CMPS:
		lo.assist(in)

	case x86.RCL, x86.RCR, x86.SHLD, x86.SHRD, x86.BT, x86.BTS, x86.BTR,
		x86.BTC, x86.BSF, x86.BSR, x86.CMPXCHG, x86.XADD:
		// Infrequent multi-flag/bit-string operations: interpreter
		// fallback, as a lean translator would trap rather than inline.
		lo.assist(in)

	case x86.CWDE:
		if in.OpSize == 2 { // CBW: AX = sext8(AL)
			al := lo.readReg8(0)
			t := bl.VReg()
			bl.OpI(rawisa.SLLI, t, al, 24)
			bl.OpI(rawisa.SRAI, t, t, 24)
			lo.writeReg16(x86.EAX, t)
		} else { // CWDE: EAX = sext16(AX)
			eax := hostReg(x86.EAX)
			bl.OpI(rawisa.SLLI, eax, eax, 16)
			bl.OpI(rawisa.SRAI, eax, eax, 16)
		}

	case x86.CLC:
		bl.OpI(rawisa.ANDI, fr, fr, int32(allFlagBits&^x86.FlagCF))
	case x86.STC:
		bl.OpI(rawisa.ORI, fr, fr, int32(x86.FlagCF))
	case x86.CMC:
		bl.OpI(rawisa.XORI, fr, fr, int32(x86.FlagCF))
	case x86.CLD:
		bl.OpI(rawisa.ANDI, fr, fr, int32(allFlagBits&^x86.FlagDF))
	case x86.STD:
		bl.OpI(rawisa.ORI, fr, fr, int32(x86.FlagDF))

	case x86.SAHF:
		const m = x86.FlagSF | x86.FlagZF | x86.FlagAF | x86.FlagPF | x86.FlagCF
		ah := lo.readReg8(4) // AH
		t := bl.VReg()
		bl.OpI(rawisa.ANDI, t, ah, int32(m))
		bl.OpI(rawisa.ANDI, fr, fr, int32(allFlagBits&^m))
		bl.Op3(rawisa.OR, fr, fr, t)
	case x86.LAHF:
		const m = x86.FlagSF | x86.FlagZF | x86.FlagAF | x86.FlagPF | x86.FlagCF
		t := bl.VReg()
		bl.OpI(rawisa.ANDI, t, fr, int32(m))
		bl.OpI(rawisa.ORI, t, t, 2)
		lo.writeReg8(4, t) // AH

	case x86.INT:
		if in.Dst.Imm != 0x80 {
			lo.assist(in) // faults at runtime
			bl.ExitImm(in.Next())
			lo.kind, lo.target, lo.ended = ExitFall, in.Next(), true
			return nil
		}
		bl.Emit(rawisa.Inst{Op: rawisa.SYSC})
		bl.Chain(in.Next())
		lo.kind, lo.target, lo.ended = ExitFall, in.Next(), true

	case x86.NOPOP:
		// nothing

	case x86.HLT:
		lo.assist(in) // interpreter fallback faults
		bl.ExitImm(in.Next())
		lo.kind, lo.target, lo.ended = ExitFall, in.Next(), true

	default:
		return &Error{Addr: in.Addr, Reason: fmt.Sprintf("no lowering for %v", in.Op)}
	}
	return nil
}

// lowerAddSub handles ADD/ADC/SUB/SBB/CMP.
func (lo *lowerer) lowerAddSub(in *x86.Inst, live uint32) {
	bl := lo.bl
	size := in.Dst.Size
	d := lo.prepDst(in.Dst)
	a := lo.readDst(d)
	b := lo.readVal(in.Src)
	sub := in.Op == x86.SUB || in.Op == x86.SBB || in.Op == x86.CMP
	withCarry := in.Op == x86.ADC || in.Op == x86.SBB

	cin := uint8(0xff)
	if withCarry {
		cin = bl.VReg()
		bl.OpI(rawisa.ANDI, cin, fr, 1)
	}

	var r, sum uint8
	if sub {
		sum = bl.VReg()
		bl.Op3(rawisa.SUB, sum, a, b)
		r = sum
		if withCarry {
			r = bl.VReg()
			bl.Op3(rawisa.SUB, r, sum, cin)
		}
	} else {
		sum = bl.VReg()
		bl.Op3(rawisa.ADD, sum, a, b)
		r = sum
		if withCarry {
			r = bl.VReg()
			bl.Op3(rawisa.ADD, r, sum, cin)
		}
	}
	masked := r
	if size != 4 {
		masked = bl.VReg()
		bl.OpI(rawisa.ANDI, masked, r, int32(x86.SizeMask(size)))
	}
	// The flag helper's sum field: for sub-32-bit adds it wants the
	// final unmasked sum (carry lives at bit `bits`); for 32-bit
	// ADC/SBB it wants the pre-carry partial (a+b or a-b).
	fsum := sum
	if size != 4 {
		fsum = r
	}
	emitArithFlags(bl, arithFlags{a: a, b: b, r: masked, sum: fsum, cin: cin, size: size, sub: sub}, live)
	if in.Op != x86.CMP {
		lo.writeDst(d, masked)
	}
}

// lowerLogic handles AND/OR/XOR/TEST.
func (lo *lowerer) lowerLogic(in *x86.Inst, live uint32) {
	bl := lo.bl
	d := lo.prepDst(in.Dst)
	a := lo.readDst(d)
	b := lo.readVal(in.Src)
	r := bl.VReg()
	switch in.Op {
	case x86.AND, x86.TEST:
		bl.Op3(rawisa.AND, r, a, b)
	case x86.OR:
		bl.Op3(rawisa.OR, r, a, b)
	case x86.XOR:
		bl.Op3(rawisa.XOR, r, a, b)
	}
	emitLogicFlags(bl, r, in.Dst.Size, live)
	if in.Op != x86.TEST {
		lo.writeDst(d, r)
	}
}

// lowerShift handles the shift and rotate group.
func (lo *lowerer) lowerShift(in *x86.Inst, live uint32) {
	size := in.Dst.Size
	isRot := in.Op == x86.ROL || in.Op == x86.ROR
	if in.Src.Kind == x86.KImm {
		count := uint32(in.Src.Imm) & 31
		if count == 0 {
			return
		}
		if isRot {
			lo.lowerRotImm(in, count, live)
		} else {
			lo.lowerShiftImm(in, count, live)
		}
		return
	}
	// Count in CL. Inline only the common 32-bit shift; everything else
	// goes to the interpreter assist.
	if size != 4 || isRot {
		lo.assist(in)
		return
	}
	lo.lowerShiftCL(in, live)
}

func (lo *lowerer) lowerShiftImm(in *x86.Inst, count uint32, live uint32) {
	bl := lo.bl
	size := in.Dst.Size
	bits := uint32(size) * 8
	d := lo.prepDst(in.Dst)
	a := lo.readDst(d) // masked to size
	r := bl.VReg()
	cf := bl.VReg()

	switch in.Op {
	case x86.SHL:
		raw := bl.VReg()
		bl.OpI(rawisa.SLLI, raw, a, int32(count))
		if size == 4 {
			bl.Move(r, raw)
			bl.OpI(rawisa.SRLI, cf, a, int32(32-count))
			bl.OpI(rawisa.ANDI, cf, cf, 1)
		} else {
			bl.OpI(rawisa.ANDI, r, raw, int32(x86.SizeMask(size)))
			bl.OpI(rawisa.SRLI, cf, raw, int32(bits))
			bl.OpI(rawisa.ANDI, cf, cf, 1)
		}
		lo.shiftFlags(in, a, r, cf, size, live, true, false)
	case x86.SHR:
		bl.OpI(rawisa.SRLI, r, a, int32(count))
		bl.OpI(rawisa.SRLI, cf, a, int32(count-1))
		bl.OpI(rawisa.ANDI, cf, cf, 1)
		lo.shiftFlags(in, a, r, cf, size, live, false, false)
	case x86.SAR:
		src := a
		if size != 4 {
			se := bl.VReg()
			bl.OpI(rawisa.SLLI, se, a, int32(32-bits))
			bl.OpI(rawisa.SRAI, se, se, int32(32-bits))
			src = se
		}
		if count >= bits && size != 4 {
			bl.OpI(rawisa.SRAI, r, src, 31)
		} else {
			bl.OpI(rawisa.SRAI, r, src, int32(count))
		}
		if size != 4 {
			bl.OpI(rawisa.ANDI, r, r, int32(x86.SizeMask(size)))
		}
		c := count - 1
		if c > 31 {
			c = 31
		}
		bl.OpI(rawisa.SRAI, cf, src, int32(c))
		bl.OpI(rawisa.ANDI, cf, cf, 1)
		lo.shiftFlags(in, a, r, cf, size, live, false, true)
	}
	lo.writeDst(d, r)
}

// shiftFlags materializes the live flags of a SHL/SHR/SAR.
func (lo *lowerer) shiftFlags(in *x86.Inst, a, r, cf uint8, size uint8, live uint32, isShl, isSar bool) {
	bl := lo.bl
	live &= x86.FlagsArith
	if live == 0 {
		return
	}
	clearFlags(bl, live)
	if live&x86.FlagCF != 0 {
		t := bl.VReg()
		bl.Move(t, cf)
		orFlag(bl, t)
	}
	if live&x86.FlagOF != 0 && !isSar {
		t := bl.VReg()
		if isShl {
			// OF = msb(result) ^ CF.
			switch size {
			case 1:
				bl.OpI(rawisa.SRLI, t, r, 7)
			case 2:
				bl.OpI(rawisa.SRLI, t, r, 15)
			default:
				bl.OpI(rawisa.SRLI, t, r, 31)
			}
			bl.OpI(rawisa.ANDI, t, t, 1)
			bl.Op3(rawisa.XOR, t, t, cf)
		} else {
			// SHR: OF = msb(input).
			switch size {
			case 1:
				bl.OpI(rawisa.SRLI, t, a, 7)
			case 2:
				bl.OpI(rawisa.SRLI, t, a, 15)
			default:
				bl.OpI(rawisa.SRLI, t, a, 31)
			}
			bl.OpI(rawisa.ANDI, t, t, 1)
		}
		emitBit01(bl, t, 11)
	}
	if live&x86.FlagZF != 0 {
		emitZF(bl, r)
	}
	if live&x86.FlagSF != 0 {
		emitSF(bl, r, size)
	}
	if live&x86.FlagPF != 0 {
		emitPF(bl, r)
	}
	// AF is architecturally undefined for shifts; our canonical
	// semantics leave it cleared, which clearFlags already did.
}

// lowerRotImm handles ROL/ROR with an immediate count (32-bit only;
// sub-size rotates go through lowerShift's assist path).
func (lo *lowerer) lowerRotImm(in *x86.Inst, count uint32, live uint32) {
	if in.Dst.Size != 4 {
		lo.assist(in)
		return
	}
	bl := lo.bl
	d := lo.prepDst(in.Dst)
	a := lo.readDst(d)
	r := bl.VReg()
	t := bl.VReg()
	c := count & 31
	if in.Op == x86.ROR {
		c = (32 - c) & 31
	}
	if c == 0 {
		bl.Move(r, a)
	} else {
		bl.OpI(rawisa.SLLI, r, a, int32(c))
		bl.OpI(rawisa.SRLI, t, a, int32(32-c))
		bl.Op3(rawisa.OR, r, r, t)
	}
	live &= x86.FlagCF | x86.FlagOF
	if live != 0 {
		clearFlags(bl, live)
		if in.Op == x86.ROL {
			if live&x86.FlagCF != 0 {
				bl.OpI(rawisa.ANDI, t, r, 1)
				orFlag(bl, t)
			}
			if live&x86.FlagOF != 0 {
				u := bl.VReg()
				bl.OpI(rawisa.SRLI, t, r, 31)
				bl.OpI(rawisa.ANDI, u, r, 1)
				bl.Op3(rawisa.XOR, t, t, u)
				emitBit01(bl, t, 11)
			}
		} else {
			if live&x86.FlagCF != 0 {
				bl.OpI(rawisa.SRLI, t, r, 31)
				orFlag(bl, t)
			}
			if live&x86.FlagOF != 0 {
				u := bl.VReg()
				bl.OpI(rawisa.SRLI, t, r, 31)
				bl.OpI(rawisa.SRLI, u, r, 30)
				bl.OpI(rawisa.ANDI, u, u, 1)
				bl.Op3(rawisa.XOR, t, t, u)
				emitBit01(bl, t, 11)
			}
		}
	}
	lo.writeDst(d, r)
}

// lowerShiftCL handles 32-bit shifts with the count in CL. The result
// is computed unconditionally (a zero count is the identity); the flag
// update is branched over when the count is zero, matching the
// architecture.
func (lo *lowerer) lowerShiftCL(in *x86.Inst, live uint32) {
	bl := lo.bl
	d := lo.prepDst(in.Dst)
	a := lo.readDst(d)
	count := bl.VReg()
	bl.OpI(rawisa.ANDI, count, hostReg(x86.ECX), 31)
	r := bl.VReg()
	var op rawisa.Op
	switch in.Op {
	case x86.SHL:
		op = rawisa.SLL
	case x86.SHR:
		op = rawisa.SRL
	default:
		op = rawisa.SRA
	}
	bl.Op3(op, r, count, a) // rd = rt shifted by rs

	live &= x86.FlagsArith
	if live != 0 {
		skip := bl.NewLabel()
		bl.EmitBranch(rawisa.Inst{Op: rawisa.BEQ, Rs: count, Rt: rawisa.RegZero}, skip)
		cf := bl.VReg()
		cm1 := bl.VReg()
		switch in.Op {
		case x86.SHL:
			// CF = bit (32-count) of a.
			bl.OpI(rawisa.ADDI, cm1, count, -32)
			bl.Op3(rawisa.SUB, cm1, rawisa.RegZero, cm1) // 32-count
			bl.Op3(rawisa.SRL, cf, cm1, a)
			bl.OpI(rawisa.ANDI, cf, cf, 1)
		case x86.SHR:
			bl.OpI(rawisa.ADDI, cm1, count, -1)
			bl.Op3(rawisa.SRL, cf, cm1, a)
			bl.OpI(rawisa.ANDI, cf, cf, 1)
		default:
			bl.OpI(rawisa.ADDI, cm1, count, -1)
			bl.Op3(rawisa.SRA, cf, cm1, a)
			bl.OpI(rawisa.ANDI, cf, cf, 1)
		}
		lo.shiftFlags(in, a, r, cf, 4, live, in.Op == x86.SHL, in.Op == x86.SAR)
		bl.Bind(skip)
	}
	lo.writeDst(d, r)
}

// lowerWideMul handles the one-operand 32-bit MUL/IMUL.
func (lo *lowerer) lowerWideMul(in *x86.Inst, live uint32) {
	bl := lo.bl
	b := lo.readVal(in.Src)
	eax, edx := hostReg(x86.EAX), hostReg(x86.EDX)
	op := rawisa.MULTU
	if in.Op == x86.IMUL {
		op = rawisa.MULT
	}
	bl.Emit(rawisa.Inst{Op: op, Rs: eax, Rt: b})
	loR := bl.VReg()
	hiR := bl.VReg()
	bl.Emit(rawisa.Inst{Op: rawisa.MFLO, Rd: loR})
	bl.Emit(rawisa.Inst{Op: rawisa.MFHI, Rd: hiR})
	bl.Move(eax, loR)
	bl.Move(edx, hiR)
	if live&x86.FlagsArith != 0 {
		hiSig := bl.VReg()
		if in.Op == x86.IMUL {
			s := bl.VReg()
			bl.OpI(rawisa.SRAI, s, loR, 31)
			bl.Op3(rawisa.XOR, hiSig, hiR, s)
			bl.Op3(rawisa.SLTU, hiSig, rawisa.RegZero, hiSig)
		} else {
			bl.Op3(rawisa.SLTU, hiSig, rawisa.RegZero, hiR)
		}
		emitMulFlags(bl, loR, hiSig, 4, live)
	}
}

// lowerIMul2 handles the 2- and 3-operand truncating IMUL.
func (lo *lowerer) lowerIMul2(in *x86.Inst, live uint32) {
	if in.Dst.Size != 4 {
		lo.assist(in) // 16-bit IMUL with 0x66 prefix: interpreter path
		return
	}
	bl := lo.bl
	var a, b uint8
	if in.Src2.Kind != x86.KNone {
		a = lo.readVal(in.Src)
		b = lo.readValSigned(in.Src2)
	} else {
		a = lo.readVal(in.Dst)
		b = lo.readVal(in.Src)
	}
	bl.Emit(rawisa.Inst{Op: rawisa.MULT, Rs: a, Rt: b})
	loR := bl.VReg()
	bl.Emit(rawisa.Inst{Op: rawisa.MFLO, Rd: loR})
	if live&x86.FlagsArith != 0 {
		hiR := bl.VReg()
		bl.Emit(rawisa.Inst{Op: rawisa.MFHI, Rd: hiR})
		hiSig := bl.VReg()
		s := bl.VReg()
		bl.OpI(rawisa.SRAI, s, loR, 31)
		bl.Op3(rawisa.XOR, hiSig, hiR, s)
		bl.Op3(rawisa.SLTU, hiSig, rawisa.RegZero, hiSig)
		emitMulFlags(bl, loR, hiSig, 4, live)
	}
	lo.writeDst(lo.prepDst(in.Dst), loR)
}
