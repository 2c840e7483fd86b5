package translate

// Tier-0 template translation: the IR-less fast path. Each guest
// instruction with a template is expanded directly to host (Raw)
// instructions over the physical scratch registers — no IR build, no
// optimizer, no register allocation — so translation occupancy is a
// fraction of the full pipeline's. Blocks containing any un-templated
// instruction fall back wholesale to the optimizing tier via
// TranslateTier.
//
// Correctness contract: tier-0 consumes the SAME flag-liveness
// annotations as the optimizing tier (flagLiveness is a pure function
// of the decoded block), and its flag templates compute bit-identical
// EFLAGS values to the emitters in flagemit.go. Dead flag bits are left
// stale by both tiers in exactly the same positions, so the
// architectural state after any block is independent of which tier
// translated it — the property the differential and fleet-invariance
// tests pin.

import (
	"errors"
	"fmt"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
	"tilevm/internal/x86"
)

// ErrUntemplated reports that a block contains an instruction without a
// tier-0 template (or one that would exceed the physical scratch
// registers). Callers fall back to the optimizing pipeline.
var ErrUntemplated = errors.New("tier0: no template")

// TranslateTier is the single tier-dispatch point: every translation in
// the system — slave tiles, rollback re-translation, replay — must go
// through it so record/replay and rollback can never disagree on tier
// choice. With tier0 false (or on template miss) it is exactly
// TranslateFinal.
func (t *Translator) TranslateTier(mem CodeReader, addr uint32, tier0 bool) (*Result, error) {
	if tier0 {
		res, err := t.TranslateTemplate(mem, addr)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrUntemplated) {
			return nil, err
		}
	}
	return t.TranslateFinal(mem, addr)
}

// TranslateTemplate translates the block at addr through the tier-0
// template path only, returning ErrUntemplated if any instruction in
// the block has no template.
func (t *Translator) TranslateTemplate(mem CodeReader, addr uint32) (*Result, error) {
	insts, live, err := t.decode(mem, addr, MaxBlockInsts)
	if err != nil {
		return nil, err
	}
	e := &t.em
	*e = emitter{code: e.code[:0]}
	for i := range insts {
		e.beginInst()
		if !e.template(&insts[i], live[i]) {
			return nil, fmt.Errorf("%w: %v at %#x", ErrUntemplated, insts[i].Op, insts[i].Addr)
		}
		if e.spill {
			return nil, fmt.Errorf("%w: scratch registers exhausted at %#x", ErrUntemplated, insts[i].Addr)
		}
	}
	last := insts[len(insts)-1]
	end := last.Next()
	if !last.EndsBlock() && !e.ended {
		// Size-capped block (or undecodable tail): chain to the next
		// instruction, as the optimizing tier does.
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: end})
		e.kind, e.target = ExitFall, end
	}
	code := make([]rawisa.Inst, len(e.code)) // e.code is scratch
	copy(code, e.code)
	return newResult(Block{
		Block:         &ir.Block{GuestAddr: addr, GuestLen: end - addr, NumGuest: len(insts)},
		Kind:          e.kind,
		Target:        e.target,
		FallTarget:    e.fall,
		BackwardTaken: e.back,
	}, code, false, TierTemplate), nil
}

// emitter assembles host code directly into the physical register file.
// Scratch registers RegTmp0..RegTmpN are block-local on the host, so
// the allocator simply resets at every guest instruction boundary; the
// flag templates share two dedicated scratch slots (ft/fu) across the
// per-flag emitters, which keeps the worst-case template (a sub-size
// ADC to memory with every flag live) inside the physical budget.
type emitter struct {
	code   []rawisa.Inst // reused from block to block
	next   uint8         // next free scratch register
	ft, fu uint8         // shared flag-template scratch, allocated lazily
	spill  bool          // a template overran the scratch registers

	kind   ExitKind
	target uint32
	fall   uint32
	back   bool
	ended  bool
}

func (e *emitter) beginInst() {
	e.next = rawisa.RegTmp0
	e.ft, e.fu = 0, 0
}

func (e *emitter) tmp() uint8 {
	if e.next > rawisa.RegTmpN {
		e.spill = true
		return rawisa.RegTmpN
	}
	r := e.next
	e.next++
	return r
}

// ftmp/futmp are the two scratch registers shared by the flag
// templates: each per-flag emitter's intermediates die at its orFlag,
// so sequential emitters can reuse the same slots.
func (e *emitter) ftmp() uint8 {
	if e.ft == 0 {
		e.ft = e.tmp()
	}
	return e.ft
}

func (e *emitter) futmp() uint8 {
	if e.fu == 0 {
		e.fu = e.tmp()
	}
	return e.fu
}

func (e *emitter) emit(in rawisa.Inst) { e.code = append(e.code, in) }

func (e *emitter) op3(op rawisa.Op, rd, rs, rt uint8) {
	e.emit(rawisa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

func (e *emitter) opI(op rawisa.Op, rd, rs uint8, imm int32) {
	e.emit(rawisa.Inst{Op: op, Rd: rd, Rs: rs, Imm: imm})
}

func (e *emitter) move(rd, rs uint8) {
	if rd == rs {
		return
	}
	e.op3(rawisa.OR, rd, rs, rawisa.RegZero)
}

func (e *emitter) loadImm(rd uint8, v uint32) {
	switch {
	case v == 0:
		e.move(rd, rawisa.RegZero)
	case rawisa.FitsSImm(int32(v)):
		e.opI(rawisa.ADDI, rd, rawisa.RegZero, int32(v))
	case v&0xffff == 0:
		e.opI(rawisa.LUI, rd, 0, int32(v>>16))
	default:
		e.opI(rawisa.LUI, rd, 0, int32(v>>16))
		e.opI(rawisa.ORI, rd, rd, int32(v&0xffff))
	}
}

func (e *emitter) addImm(rd, rs uint8, v int32) {
	if v == 0 {
		e.move(rd, rs)
		return
	}
	if rawisa.FitsSImm(v) {
		e.opI(rawisa.ADDI, rd, rs, v)
		return
	}
	t := e.tmp()
	e.loadImm(t, uint32(v))
	e.op3(rawisa.ADD, rd, rs, t)
}

// branchOver emits a conditional branch whose target is bound later
// with bind; the returned value is the branch's code index.
func (e *emitter) branchOver(op rawisa.Op, rs, rt uint8) int {
	e.emit(rawisa.Inst{Op: op, Rs: rs, Rt: rt})
	return len(e.code) - 1
}

// bind points a pending branch at the NEXT instruction to be emitted
// (rawexec branch offsets are in instruction slots relative to the
// instruction after the branch).
func (e *emitter) bind(at int) {
	e.code[at].Imm = int32(len(e.code) - (at + 1))
}

// computeEA materializes a memory operand's effective address into a
// scratch register (the template analog of lowerer.computeEA).
func (e *emitter) computeEA(o x86.Operand) uint8 {
	ea := e.tmp()
	switch {
	case o.Base != x86.NoIndex && o.Index != x86.NoIndex:
		idx := hostReg(x86.Reg(o.Index))
		if o.Scale > 1 {
			e.opI(rawisa.SLLI, ea, idx, int32(log2u8(o.Scale)))
			e.op3(rawisa.ADD, ea, ea, hostReg(x86.Reg(o.Base)))
		} else {
			e.op3(rawisa.ADD, ea, hostReg(x86.Reg(o.Base)), idx)
		}
		if o.Disp != 0 {
			e.addImm(ea, ea, o.Disp)
		}
	case o.Base != x86.NoIndex:
		e.addImm(ea, hostReg(x86.Reg(o.Base)), o.Disp)
	case o.Index != x86.NoIndex:
		idx := hostReg(x86.Reg(o.Index))
		if o.Scale > 1 {
			e.opI(rawisa.SLLI, ea, idx, int32(log2u8(o.Scale)))
		} else {
			e.move(ea, idx)
		}
		if o.Disp != 0 {
			e.addImm(ea, ea, o.Disp)
		}
	default:
		e.loadImm(ea, uint32(o.Disp))
	}
	return ea
}

func (e *emitter) readReg8(r x86.Reg) uint8 {
	t := e.tmp()
	if r < 4 {
		e.opI(rawisa.ANDI, t, hostReg(r), 0xff)
	} else {
		e.opI(rawisa.SRLI, t, hostReg(r-4), 8)
		e.opI(rawisa.ANDI, t, t, 0xff)
	}
	return t
}

func (e *emitter) writeReg8(r x86.Reg, v uint8) {
	masked := e.tmp()
	e.opI(rawisa.ANDI, masked, v, 0xff)
	if r < 4 {
		h := hostReg(r)
		t := e.tmp()
		e.opI(rawisa.SRLI, t, h, 8)
		e.opI(rawisa.SLLI, t, t, 8)
		e.op3(rawisa.OR, h, t, masked)
	} else {
		h := hostReg(r - 4)
		loPart := e.tmp()
		hiPart := e.tmp()
		e.opI(rawisa.ANDI, loPart, h, 0xff)
		e.opI(rawisa.SRLI, hiPart, h, 16)
		e.opI(rawisa.SLLI, hiPart, hiPart, 16)
		e.opI(rawisa.SLLI, masked, masked, 8)
		e.op3(rawisa.OR, h, hiPart, loPart)
		e.op3(rawisa.OR, h, h, masked)
	}
}

func (e *emitter) writeReg16(r x86.Reg, v uint8) {
	h := hostReg(r)
	t := e.tmp()
	masked := e.tmp()
	e.opI(rawisa.ANDI, masked, v, 0xffff)
	e.opI(rawisa.SRLI, t, h, 16)
	e.opI(rawisa.SLLI, t, t, 16)
	e.op3(rawisa.OR, h, t, masked)
}

// eDst mirrors lowerer.dst: a destination with its effective address
// computed once and shared between the RMW read and the write.
type eDst struct {
	o  x86.Operand
	ea uint8
}

func (e *emitter) prepDst(o x86.Operand) eDst {
	d := eDst{o: o}
	if o.Kind == x86.KMem {
		d.ea = e.computeEA(o)
	}
	return d
}

func (e *emitter) readDst(d eDst) uint8 {
	switch d.o.Kind {
	case x86.KReg:
		switch d.o.Size {
		case 1:
			return e.readReg8(d.o.Reg)
		case 2:
			t := e.tmp()
			e.opI(rawisa.ANDI, t, hostReg(d.o.Reg), 0xffff)
			return t
		default:
			return hostReg(d.o.Reg)
		}
	case x86.KMem:
		t := e.tmp()
		switch d.o.Size {
		case 1:
			e.emit(rawisa.Inst{Op: rawisa.GLBU, Rd: t, Rs: d.ea})
		case 2:
			e.emit(rawisa.Inst{Op: rawisa.GLHU, Rd: t, Rs: d.ea})
		default:
			e.emit(rawisa.Inst{Op: rawisa.GLW, Rd: t, Rs: d.ea})
		}
		return t
	}
	panic("tier0: readDst of non-lvalue")
}

func (e *emitter) writeDst(d eDst, v uint8) {
	switch d.o.Kind {
	case x86.KReg:
		switch d.o.Size {
		case 1:
			e.writeReg8(d.o.Reg, v)
		case 2:
			e.writeReg16(d.o.Reg, v)
		default:
			e.move(hostReg(d.o.Reg), v)
		}
	case x86.KMem:
		switch d.o.Size {
		case 1:
			e.emit(rawisa.Inst{Op: rawisa.GSB, Rs: d.ea, Rt: v})
		case 2:
			e.emit(rawisa.Inst{Op: rawisa.GSH, Rs: d.ea, Rt: v})
		default:
			e.emit(rawisa.Inst{Op: rawisa.GSW, Rs: d.ea, Rt: v})
		}
	default:
		panic("tier0: writeDst of non-lvalue")
	}
}

func (e *emitter) readVal(o x86.Operand) uint8 {
	switch o.Kind {
	case x86.KImm:
		t := e.tmp()
		e.loadImm(t, uint32(o.Imm)&x86.SizeMask(o.Size))
		return t
	case x86.KReg, x86.KMem:
		return e.readDst(e.prepDst(o))
	}
	panic("tier0: readVal of empty operand")
}

func (e *emitter) readValSigned(o x86.Operand) uint8 {
	if o.Kind == x86.KMem && o.Size != 4 {
		ea := e.computeEA(o)
		t := e.tmp()
		op := rawisa.GLB
		if o.Size == 2 {
			op = rawisa.GLH
		}
		e.emit(rawisa.Inst{Op: op, Rd: t, Rs: ea})
		return t
	}
	v := e.readVal(o)
	if o.Size == 4 {
		return v
	}
	t := e.tmp()
	sh := int32(32 - int(o.Size)*8)
	e.opI(rawisa.SLLI, t, v, sh)
	e.opI(rawisa.SRAI, t, t, sh)
	return t
}

func (e *emitter) push32(v uint8) {
	sp := hostReg(x86.ESP)
	e.opI(rawisa.ADDI, sp, sp, -4)
	e.emit(rawisa.Inst{Op: rawisa.GSW, Rs: sp, Rt: v})
}

func (e *emitter) pop32() uint8 {
	sp := hostReg(x86.ESP)
	t := e.tmp()
	e.emit(rawisa.Inst{Op: rawisa.GLW, Rd: t, Rs: sp})
	e.opI(rawisa.ADDI, sp, sp, 4)
	return t
}

// Flag templates. These compute bit-identical EFLAGS values to the IR
// emitters in flagemit.go — only the live bits are cleared and
// recomputed, dead bits stay stale — using the shared ft/fu scratch.

func (e *emitter) clearFlags(bits uint32) {
	if bits == 0 {
		return
	}
	e.opI(rawisa.ANDI, fr, fr, int32(allFlagBits&^bits))
}

func (e *emitter) orFlag(t uint8) { e.op3(rawisa.OR, fr, fr, t) }

func (e *emitter) eZF(r uint8) {
	t := e.ftmp()
	e.opI(rawisa.SLTIU, t, r, 1)
	e.opI(rawisa.SLLI, t, t, 6)
	e.orFlag(t)
}

func (e *emitter) eSF(r uint8, size uint8) {
	t := e.ftmp()
	switch size {
	case 1:
		e.opI(rawisa.ANDI, t, r, 0x80)
	case 2:
		e.opI(rawisa.SRLI, t, r, 8)
		e.opI(rawisa.ANDI, t, t, 0x80)
	default:
		e.opI(rawisa.SRLI, t, r, 24)
		e.opI(rawisa.ANDI, t, t, 0x80)
	}
	e.orFlag(t)
}

func (e *emitter) ePF(r uint8) {
	t := e.ftmp()
	u := e.futmp()
	e.opI(rawisa.ANDI, t, r, 0xff)
	e.opI(rawisa.SRLI, u, t, 4)
	e.op3(rawisa.XOR, t, t, u)
	e.opI(rawisa.SRLI, u, t, 2)
	e.op3(rawisa.XOR, t, t, u)
	e.opI(rawisa.SRLI, u, t, 1)
	e.op3(rawisa.XOR, t, t, u)
	e.opI(rawisa.XORI, t, t, 1)
	e.opI(rawisa.ANDI, t, t, 1)
	e.opI(rawisa.SLLI, t, t, 2)
	e.orFlag(t)
}

func (e *emitter) eAF(a, b, r uint8) {
	t := e.ftmp()
	e.op3(rawisa.XOR, t, a, b)
	e.op3(rawisa.XOR, t, t, r)
	e.opI(rawisa.ANDI, t, t, 0x10)
	e.orFlag(t)
}

func (e *emitter) eBit01(t uint8, pos uint) {
	if pos != 0 {
		e.opI(rawisa.SLLI, t, t, int32(pos))
	}
	e.orFlag(t)
}

func (e *emitter) eArithFlags(f arithFlags, live uint32) {
	live &= x86.FlagsArith
	if live == 0 {
		return
	}
	e.clearFlags(live)
	if live&x86.FlagCF != 0 {
		e.eCF(f)
	}
	if live&x86.FlagOF != 0 {
		e.eOF(f)
	}
	if live&x86.FlagAF != 0 {
		e.eAF(f.a, f.b, f.r)
	}
	if live&x86.FlagZF != 0 {
		e.eZF(f.r)
	}
	if live&x86.FlagSF != 0 {
		e.eSF(f.r, f.size)
	}
	if live&x86.FlagPF != 0 {
		e.ePF(f.r)
	}
}

func (e *emitter) eCF(f arithFlags) {
	t := e.ftmp()
	switch {
	case f.size != 4 && !f.sub:
		e.opI(rawisa.SRLI, t, f.sum, int32(f.size)*8)
		e.opI(rawisa.ANDI, t, t, 1)
	case f.size != 4 && f.sub:
		b := f.b
		if f.cin != 0xff {
			bsum := e.futmp()
			e.op3(rawisa.ADD, bsum, f.b, f.cin)
			b = bsum
		}
		e.op3(rawisa.SLTU, t, f.a, b)
	case !f.sub && f.cin == 0xff:
		e.op3(rawisa.SLTU, t, f.r, f.a)
	case !f.sub:
		t2 := e.futmp()
		e.op3(rawisa.SLTU, t, f.sum, f.a)
		e.op3(rawisa.SLTU, t2, f.r, f.sum)
		e.op3(rawisa.OR, t, t, t2)
	case f.cin == 0xff:
		e.op3(rawisa.SLTU, t, f.a, f.b)
	default:
		t2 := e.futmp()
		e.op3(rawisa.SLTU, t, f.a, f.b)
		e.op3(rawisa.SLTU, t2, f.sum, f.cin)
		e.op3(rawisa.OR, t, t, t2)
	}
	e.eBit01(t, 0)
}

func (e *emitter) eOF(f arithFlags) {
	t := e.ftmp()
	u := e.futmp()
	if f.sub {
		e.op3(rawisa.XOR, t, f.a, f.b)
		e.op3(rawisa.XOR, u, f.a, f.r)
	} else {
		e.op3(rawisa.XOR, t, f.a, f.r)
		e.op3(rawisa.XOR, u, f.b, f.r)
	}
	e.op3(rawisa.AND, t, t, u)
	switch f.size {
	case 1:
		e.opI(rawisa.SLLI, t, t, 4)
		e.opI(rawisa.ANDI, t, t, 0x800)
	case 2:
		e.opI(rawisa.SRLI, t, t, 4)
		e.opI(rawisa.ANDI, t, t, 0x800)
	default:
		e.opI(rawisa.SRLI, t, t, 20)
		e.opI(rawisa.ANDI, t, t, 0x800)
	}
	e.orFlag(t)
}

func (e *emitter) eLogicFlags(r uint8, size uint8, live uint32) {
	live &= x86.FlagsArith
	if live == 0 {
		return
	}
	e.clearFlags(live)
	if live&x86.FlagZF != 0 {
		e.eZF(r)
	}
	if live&x86.FlagSF != 0 {
		e.eSF(r, size)
	}
	if live&x86.FlagPF != 0 {
		e.ePF(r)
	}
}

// eCondTest computes a truthy scratch register for the base
// (even-numbered) condition of pair c, exactly as condTest does in IR.
func (e *emitter) eCondTest(c x86.Cond) uint8 {
	t := e.tmp()
	switch c &^ 1 {
	case x86.CondO:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagOF))
	case x86.CondB:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagCF))
	case x86.CondE:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagZF))
	case x86.CondBE:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagCF|x86.FlagZF))
	case x86.CondS:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagSF))
	case x86.CondP:
		e.opI(rawisa.ANDI, t, fr, int32(x86.FlagPF))
	case x86.CondL:
		u := e.tmp()
		e.opI(rawisa.SLLI, t, fr, 4)
		e.opI(rawisa.ANDI, t, t, 0x800)
		e.opI(rawisa.ANDI, u, fr, 0x800)
		e.op3(rawisa.XOR, t, t, u)
	case x86.CondLE:
		u := e.tmp()
		e.opI(rawisa.SLLI, t, fr, 4)
		e.opI(rawisa.ANDI, t, t, 0x800)
		e.opI(rawisa.ANDI, u, fr, 0x800)
		e.op3(rawisa.XOR, t, t, u)
		e.opI(rawisa.ANDI, u, fr, int32(x86.FlagZF))
		e.op3(rawisa.OR, t, t, u)
	}
	return t
}

// template expands one guest instruction, or reports false when it has
// no tier-0 template. The supported set is the common integer / branch
// / mov subset; everything else (wide multiplies, divides, variable
// shifts, rotates, string and bit-string operations, BCD, rare system
// ops) falls back to the optimizing tier.
func (e *emitter) template(in *x86.Inst, live uint32) bool {
	switch in.Op {
	case x86.MOV:
		if in.Src.Kind == x86.KImm && in.Dst.Kind == x86.KReg && in.Dst.Size == 4 {
			e.loadImm(hostReg(in.Dst.Reg), uint32(in.Src.Imm))
			return true
		}
		d := e.prepDst(in.Dst)
		v := e.readVal(in.Src)
		e.writeDst(d, v)

	case x86.MOVZX:
		v := e.readVal(in.Src)
		e.writeDst(e.prepDst(in.Dst), v)

	case x86.MOVSX:
		v := e.readValSigned(in.Src)
		e.writeDst(e.prepDst(in.Dst), v)

	case x86.LEA:
		ea := e.computeEA(in.Src)
		e.writeDst(e.prepDst(in.Dst), ea)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.CMP:
		e.tAddSub(in, live)

	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		e.tLogic(in, live)

	case x86.NOT:
		d := e.prepDst(in.Dst)
		a := e.readDst(d)
		r := e.tmp()
		if in.Dst.Size == 4 {
			e.op3(rawisa.NOR, r, a, rawisa.RegZero)
		} else {
			e.opI(rawisa.XORI, r, a, int32(x86.SizeMask(in.Dst.Size)))
		}
		e.writeDst(d, r)

	case x86.NEG:
		d := e.prepDst(in.Dst)
		a := e.readDst(d)
		r := e.tmp()
		e.op3(rawisa.SUB, r, rawisa.RegZero, a)
		if in.Dst.Size != 4 {
			e.opI(rawisa.ANDI, r, r, int32(x86.SizeMask(in.Dst.Size)))
		}
		e.eArithFlags(arithFlags{a: rawisa.RegZero, b: a, r: r, sum: r, cin: 0xff, size: in.Dst.Size, sub: true}, live)
		e.writeDst(d, r)

	case x86.INC, x86.DEC:
		d := e.prepDst(in.Dst)
		a := e.readDst(d)
		r := e.tmp()
		one := e.tmp()
		e.opI(rawisa.ADDI, one, rawisa.RegZero, 1)
		sum := r
		sub := in.Op == x86.DEC
		if sub {
			e.op3(rawisa.SUB, r, a, one)
		} else {
			e.op3(rawisa.ADD, r, a, one)
		}
		if in.Dst.Size != 4 {
			sum = r
			m := e.tmp()
			e.opI(rawisa.ANDI, m, r, int32(x86.SizeMask(in.Dst.Size)))
			r = m
		}
		e.eArithFlags(arithFlags{a: a, b: one, r: r, sum: sum, cin: 0xff, size: in.Dst.Size, sub: sub},
			live&^x86.FlagCF)
		e.writeDst(d, r)

	case x86.SHL, x86.SHR, x86.SAR:
		if in.Src.Kind != x86.KImm {
			return false // count in CL: optimizing tier / assist
		}
		count := uint32(in.Src.Imm) & 31
		if count == 0 {
			return true
		}
		e.tShiftImm(in, count, live)

	case x86.CDQ:
		e.opI(rawisa.SRAI, hostReg(x86.EDX), hostReg(x86.EAX), 31)

	case x86.CWDE:
		if in.OpSize == 2 { // CBW: AX = sext8(AL)
			al := e.readReg8(0)
			t := e.tmp()
			e.opI(rawisa.SLLI, t, al, 24)
			e.opI(rawisa.SRAI, t, t, 24)
			e.writeReg16(x86.EAX, t)
		} else { // CWDE: EAX = sext16(AX)
			eax := hostReg(x86.EAX)
			e.opI(rawisa.SLLI, eax, eax, 16)
			e.opI(rawisa.SRAI, eax, eax, 16)
		}

	case x86.PUSH:
		v := e.readVal(in.Dst)
		e.push32(v)

	case x86.POP:
		v := e.pop32()
		e.writeDst(e.prepDst(in.Dst), v)

	case x86.LEAVE:
		sp, bp := hostReg(x86.ESP), hostReg(x86.EBP)
		e.move(sp, bp)
		v := e.pop32()
		e.move(bp, v)

	case x86.CALL:
		next := e.tmp()
		e.loadImm(next, in.Next())
		e.push32(next)
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: in.BranchTarget()})
		e.kind, e.target, e.fall, e.ended = ExitCall, in.BranchTarget(), in.Next(), true

	case x86.CALLIND:
		tgt := e.readVal(in.Src)
		next := e.tmp()
		e.loadImm(next, in.Next())
		e.push32(next)
		e.emit(rawisa.Inst{Op: rawisa.EXITR, Rs: tgt})
		e.kind, e.fall, e.ended = ExitIndirect, in.Next(), true

	case x86.RET:
		t := e.pop32()
		if in.Dst.Kind == x86.KImm && in.Dst.Imm != 0 {
			sp := hostReg(x86.ESP)
			e.addImm(sp, sp, in.Dst.Imm)
		}
		e.emit(rawisa.Inst{Op: rawisa.EXITR, Rs: t})
		e.kind, e.ended = ExitRet, true

	case x86.JMP:
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: in.BranchTarget()})
		e.kind, e.target, e.ended = ExitFall, in.BranchTarget(), true

	case x86.JMPIND:
		t := e.readVal(in.Src)
		e.emit(rawisa.Inst{Op: rawisa.EXITR, Rs: t})
		e.kind, e.ended = ExitIndirect, true

	case x86.JCC:
		t := e.eCondTest(in.Cond)
		brOp := rawisa.BNE
		if in.Cond&1 != 0 {
			brOp = rawisa.BEQ
		}
		br := e.branchOver(brOp, t, rawisa.RegZero)
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: in.Next()})
		e.bind(br)
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: in.BranchTarget()})
		e.kind = ExitBranch
		e.target, e.fall = in.BranchTarget(), in.Next()
		e.back = in.BranchTarget() <= in.Addr
		e.ended = true

	case x86.SETCC:
		t := e.eCondTest(in.Cond)
		r := e.tmp()
		e.op3(rawisa.SLTU, r, rawisa.RegZero, t)
		if in.Cond&1 != 0 {
			e.opI(rawisa.XORI, r, r, 1)
		}
		e.writeDst(e.prepDst(in.Dst), r)

	case x86.CMOVCC:
		t := e.eCondTest(in.Cond)
		brOp := rawisa.BEQ // skip when base cond false
		if in.Cond&1 != 0 {
			brOp = rawisa.BNE
		}
		br := e.branchOver(brOp, t, rawisa.RegZero)
		v := e.readVal(in.Src)
		e.writeDst(e.prepDst(in.Dst), v)
		e.bind(br)

	case x86.CLC:
		e.opI(rawisa.ANDI, fr, fr, int32(allFlagBits&^x86.FlagCF))
	case x86.STC:
		e.opI(rawisa.ORI, fr, fr, int32(x86.FlagCF))
	case x86.CMC:
		e.opI(rawisa.XORI, fr, fr, int32(x86.FlagCF))
	case x86.CLD:
		e.opI(rawisa.ANDI, fr, fr, int32(allFlagBits&^x86.FlagDF))
	case x86.STD:
		e.opI(rawisa.ORI, fr, fr, int32(x86.FlagDF))

	case x86.INT:
		if in.Dst.Imm != 0x80 {
			return false
		}
		e.emit(rawisa.Inst{Op: rawisa.SYSC})
		e.emit(rawisa.Inst{Op: rawisa.CHAIN, Target: in.Next()})
		e.kind, e.target, e.ended = ExitFall, in.Next(), true

	case x86.NOPOP:
		// nothing

	default:
		return false
	}
	return true
}

// tAddSub is the template for ADD/ADC/SUB/SBB/CMP, mirroring
// lowerAddSub including its exact flag-helper inputs.
func (e *emitter) tAddSub(in *x86.Inst, live uint32) {
	size := in.Dst.Size
	d := e.prepDst(in.Dst)
	a := e.readDst(d)
	b := e.readVal(in.Src)
	sub := in.Op == x86.SUB || in.Op == x86.SBB || in.Op == x86.CMP
	withCarry := in.Op == x86.ADC || in.Op == x86.SBB

	cin := uint8(0xff)
	if withCarry {
		cin = e.tmp()
		e.opI(rawisa.ANDI, cin, fr, 1)
	}

	var r, sum uint8
	if sub {
		sum = e.tmp()
		e.op3(rawisa.SUB, sum, a, b)
		r = sum
		if withCarry {
			r = e.tmp()
			e.op3(rawisa.SUB, r, sum, cin)
		}
	} else {
		sum = e.tmp()
		e.op3(rawisa.ADD, sum, a, b)
		r = sum
		if withCarry {
			r = e.tmp()
			e.op3(rawisa.ADD, r, sum, cin)
		}
	}
	masked := r
	if size != 4 {
		masked = e.tmp()
		e.opI(rawisa.ANDI, masked, r, int32(x86.SizeMask(size)))
	}
	fsum := sum
	if size != 4 {
		fsum = r
	}
	e.eArithFlags(arithFlags{a: a, b: b, r: masked, sum: fsum, cin: cin, size: size, sub: sub}, live)
	if in.Op != x86.CMP {
		e.writeDst(d, masked)
	}
}

// tLogic is the template for AND/OR/XOR/TEST.
func (e *emitter) tLogic(in *x86.Inst, live uint32) {
	d := e.prepDst(in.Dst)
	a := e.readDst(d)
	b := e.readVal(in.Src)
	r := e.tmp()
	switch in.Op {
	case x86.AND, x86.TEST:
		e.op3(rawisa.AND, r, a, b)
	case x86.OR:
		e.op3(rawisa.OR, r, a, b)
	case x86.XOR:
		e.op3(rawisa.XOR, r, a, b)
	}
	e.eLogicFlags(r, in.Dst.Size, live)
	if in.Op != x86.TEST {
		e.writeDst(d, r)
	}
}

// tShiftImm is the template for SHL/SHR/SAR with a nonzero immediate
// count, mirroring lowerShiftImm + shiftFlags.
func (e *emitter) tShiftImm(in *x86.Inst, count uint32, live uint32) {
	size := in.Dst.Size
	bits := uint32(size) * 8
	d := e.prepDst(in.Dst)
	a := e.readDst(d)
	r := e.tmp()
	cf := e.tmp()

	isShl, isSar := false, false
	switch in.Op {
	case x86.SHL:
		isShl = true
		raw := e.tmp()
		e.opI(rawisa.SLLI, raw, a, int32(count))
		if size == 4 {
			e.move(r, raw)
			e.opI(rawisa.SRLI, cf, a, int32(32-count))
			e.opI(rawisa.ANDI, cf, cf, 1)
		} else {
			e.opI(rawisa.ANDI, r, raw, int32(x86.SizeMask(size)))
			e.opI(rawisa.SRLI, cf, raw, int32(bits))
			e.opI(rawisa.ANDI, cf, cf, 1)
		}
	case x86.SHR:
		e.opI(rawisa.SRLI, r, a, int32(count))
		e.opI(rawisa.SRLI, cf, a, int32(count-1))
		e.opI(rawisa.ANDI, cf, cf, 1)
	case x86.SAR:
		isSar = true
		src := a
		if size != 4 {
			se := e.tmp()
			e.opI(rawisa.SLLI, se, a, int32(32-bits))
			e.opI(rawisa.SRAI, se, se, int32(32-bits))
			src = se
		}
		if count >= bits && size != 4 {
			e.opI(rawisa.SRAI, r, src, 31)
		} else {
			e.opI(rawisa.SRAI, r, src, int32(count))
		}
		if size != 4 {
			e.opI(rawisa.ANDI, r, r, int32(x86.SizeMask(size)))
		}
		c := count - 1
		if c > 31 {
			c = 31
		}
		e.opI(rawisa.SRAI, cf, src, int32(c))
		e.opI(rawisa.ANDI, cf, cf, 1)
	}
	e.tShiftFlags(a, r, cf, size, live, isShl, isSar)
	e.writeDst(d, r)
}

// tShiftFlags materializes the live flags of an immediate shift
// (shiftFlags in IR form).
func (e *emitter) tShiftFlags(a, r, cf uint8, size uint8, live uint32, isShl, isSar bool) {
	live &= x86.FlagsArith
	if live == 0 {
		return
	}
	e.clearFlags(live)
	if live&x86.FlagCF != 0 {
		t := e.ftmp()
		e.move(t, cf)
		e.orFlag(t)
	}
	if live&x86.FlagOF != 0 && !isSar {
		t := e.ftmp()
		if isShl {
			switch size {
			case 1:
				e.opI(rawisa.SRLI, t, r, 7)
			case 2:
				e.opI(rawisa.SRLI, t, r, 15)
			default:
				e.opI(rawisa.SRLI, t, r, 31)
			}
			e.opI(rawisa.ANDI, t, t, 1)
			e.op3(rawisa.XOR, t, t, cf)
		} else {
			switch size {
			case 1:
				e.opI(rawisa.SRLI, t, a, 7)
			case 2:
				e.opI(rawisa.SRLI, t, a, 15)
			default:
				e.opI(rawisa.SRLI, t, a, 31)
			}
			e.opI(rawisa.ANDI, t, t, 1)
		}
		e.eBit01(t, 11)
	}
	if live&x86.FlagZF != 0 {
		e.eZF(r)
	}
	if live&x86.FlagSF != 0 {
		e.eSF(r, size)
	}
	if live&x86.FlagPF != 0 {
		e.ePF(r)
	}
}
