package opt

import (
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// constFold tracks known register constants forward through the block
// and folds pure ALU results that become fully constant into immediate
// loads (LUI/ORI pairs are re-formed by later simplification in the
// builder idiom: we emit ADDI-from-zero for small values and keep
// LUI+ORI shapes otherwise). Facts are dropped at branch targets.
func (s *Scratch) constFold(b *ir.Block, targets []bool) {
	known := &s.known
	known.reset()
	known.set(0, 0)

	fold := func(in rawisa.Inst) (uint32, bool) {
		switch in.Op {
		case rawisa.LUI:
			return uint32(in.Imm) << 16, true
		case rawisa.ADDI, rawisa.ANDI, rawisa.ORI, rawisa.XORI,
			rawisa.SLTI, rawisa.SLTIU, rawisa.SLLI, rawisa.SRLI, rawisa.SRAI:
			a, ok := known.get(in.Rs)
			if !ok {
				return 0, false
			}
			switch in.Op {
			case rawisa.ADDI:
				return a + uint32(in.Imm), true
			case rawisa.ANDI:
				return a & uint32(uint16(in.Imm)), true
			case rawisa.ORI:
				return a | uint32(uint16(in.Imm)), true
			case rawisa.XORI:
				return a ^ uint32(uint16(in.Imm)), true
			case rawisa.SLTI:
				if int32(a) < in.Imm {
					return 1, true
				}
				return 0, true
			case rawisa.SLTIU:
				if a < uint32(in.Imm) {
					return 1, true
				}
				return 0, true
			case rawisa.SLLI:
				return a << uint(in.Imm&31), true
			case rawisa.SRLI:
				return a >> uint(in.Imm&31), true
			case rawisa.SRAI:
				return uint32(int32(a) >> uint(in.Imm&31)), true
			}
		case rawisa.ADD, rawisa.SUB, rawisa.AND, rawisa.OR, rawisa.XOR,
			rawisa.NOR, rawisa.SLT, rawisa.SLTU, rawisa.SLL, rawisa.SRL, rawisa.SRA:
			a, okA := known.get(in.Rs)
			bv, okB := known.get(in.Rt)
			if !okA || !okB {
				return 0, false
			}
			switch in.Op {
			case rawisa.ADD:
				return a + bv, true
			case rawisa.SUB:
				return a - bv, true
			case rawisa.AND:
				return a & bv, true
			case rawisa.OR:
				return a | bv, true
			case rawisa.XOR:
				return a ^ bv, true
			case rawisa.NOR:
				return ^(a | bv), true
			case rawisa.SLT:
				if int32(a) < int32(bv) {
					return 1, true
				}
				return 0, true
			case rawisa.SLTU:
				if a < bv {
					return 1, true
				}
				return 0, true
			case rawisa.SLL:
				return bv << (a & 31), true
			case rawisa.SRL:
				return bv >> (a & 31), true
			case rawisa.SRA:
				return uint32(int32(bv) >> (a & 31)), true
			}
		}
		return 0, false
	}

	for i := range b.Code {
		if targets[i] {
			known.reset()
			known.set(0, 0)
		}
		in := &b.Code[i]
		d := in.Def()
		if isPure(in.Op) && d != 0 {
			if v, ok := fold(in.Inst); ok {
				known.set(d, v)
				// Rewrite to the canonical constant-load shape when it
				// saves or simplifies.
				if rawisa.FitsSImm(int32(v)) && (in.Op != rawisa.ADDI || in.Rs != 0) {
					in.Inst = rawisa.Inst{Op: rawisa.ADDI, Rd: d, Imm: int32(v)}
				}
				continue
			}
		}
		// Strength-reduce reg-reg ops with one constant operand into
		// immediate forms.
		if imm, ok := immForm(in.Inst, known); ok {
			in.Inst = imm
		}
		if d != 0 {
			known.del(d)
			if v, ok := fold(in.Inst); ok && isPure(in.Op) {
				known.set(d, v)
			}
		}
		if in.Op == rawisa.SYSC || in.Op == rawisa.ASSIST {
			// Syscalls and interpreter assists read and write the
			// pinned guest registers implicitly.
			for r := uint8(1); r < ir.FirstVReg; r++ {
				known.del(r)
			}
		}
		// HI/LO clobbers don't affect the register constant map.
	}
}

// immForm rewrites a reg-reg ALU op whose Rt (or commutable Rs) is a
// known small constant into the immediate form.
func immForm(in rawisa.Inst, known *regFacts[uint32]) (rawisa.Inst, bool) {
	var immOp rawisa.Op
	comm := true
	switch in.Op {
	case rawisa.ADD:
		immOp = rawisa.ADDI
	case rawisa.AND:
		immOp = rawisa.ANDI
	case rawisa.OR:
		immOp = rawisa.ORI
	case rawisa.XOR:
		immOp = rawisa.XORI
	case rawisa.SLT:
		immOp, comm = rawisa.SLTI, false
	case rawisa.SLTU:
		immOp, comm = rawisa.SLTIU, false
	default:
		return in, false
	}
	fits := func(op rawisa.Op, v uint32) bool {
		switch op {
		case rawisa.ANDI, rawisa.ORI, rawisa.XORI:
			return v <= rawisa.MaxUImm
		default:
			return rawisa.FitsSImm(int32(v))
		}
	}
	if v, ok := known.get(in.Rt); ok && in.Rt != 0 && fits(immOp, v) {
		return rawisa.Inst{Op: immOp, Rd: in.Rd, Rs: in.Rs, Imm: int32(v)}, true
	}
	if comm {
		if v, ok := known.get(in.Rs); ok && in.Rs != 0 && fits(immOp, v) {
			return rawisa.Inst{Op: immOp, Rd: in.Rd, Rs: in.Rt, Imm: int32(v)}, true
		}
	}
	return in, false
}

// copyProp replaces uses of registers that are known copies of other
// registers. Only vreg→reg copies created by `OR rd, rs, r0` and
// `ADDI rd, rs, 0` are tracked; facts drop at branch targets and when
// either side is redefined. Physical guest registers are never
// rewritten as destinations.
func (s *Scratch) copyProp(b *ir.Block, targets []bool) {
	alias := &s.alias
	alias.reset()

	invalidate := func(r uint8) {
		alias.del(r)
		alias.delIf(func(src uint8) bool { return src == r })
	}

	resolve := func(r uint8) uint8 {
		if src, ok := alias.get(r); ok {
			return src
		}
		return r
	}

	for i := range b.Code {
		if targets[i] {
			alias.reset()
		}
		in := &b.Code[i]
		// Rewrite uses.
		uses, n := in.Uses()
		for k := 0; k < n; k++ {
			if src := resolve(uses[k]); src != uses[k] {
				if k == 0 {
					in.Rs = src
				} else {
					in.Rt = src
				}
			}
		}
		d := in.Def()
		if d != 0 {
			invalidate(d)
			if src, ok := copySource(in.Inst); ok {
				alias.set(d, resolve(src))
			}
		}
		if in.Op == rawisa.SYSC || in.Op == rawisa.ASSIST {
			for r := uint8(1); r < ir.FirstVReg; r++ {
				invalidate(r)
			}
		}
	}
}

// copySource reports whether in is a register copy copyProp tracks —
// `OR rd, rs, r0` or `ADDI rd, rs, 0` with rs neither rd nor r0 — and
// returns rs.
func copySource(in rawisa.Inst) (uint8, bool) {
	isCopy := (in.Op == rawisa.OR && in.Rt == 0) || (in.Op == rawisa.ADDI && in.Imm == 0)
	return in.Rs, isCopy && in.Rs != in.Rd && in.Rs != 0
}

// deadCode removes pure instructions whose destination vreg is never
// subsequently read. Physical registers are always considered live
// (guest state flows out of the block). Label positions, and with them
// targets, are remapped after removal.
//
// It reports whether a removal can enable another sweep: whether it
// dropped a def of a register d that had cut short a fact an earlier
// kept instruction holds about d's value — d is the source of a kept
// copy, the value of a kept GSW, or the result of its latest kept def,
// a guest load. With that def gone the fact reaches further, and
// copyProp or redundantLoads may rewrite a later read into a read of d.
// Every other removed def wrote a register no kept instruction reads
// again, so nothing any pass knows gets through the gap.
func (s *Scratch) deadCode(b *ir.Block, targets []bool) bool {
	n := len(b.Code)
	liveV := &s.liveV
	clear(liveV[:])
	newPos := s.pos[:n+1] // first 1 = kept, 0 = dead; then old index -> new index
	removed := 0

	for i := n - 1; i >= 0; i-- {
		in := b.Code[i]
		d := in.Def()
		dead := isPure(in.Op) && d >= ir.FirstVReg && !liveV[d]
		if in.Op == rawisa.NOP {
			dead = true
		}
		if dead {
			newPos[i] = 0
			removed++
			continue
		}
		newPos[i] = 1
		// Note: a kept def does NOT clear liveness. With forward
		// branches a def can be skipped at runtime, so an earlier def
		// of the same vreg may still reach a later use on the branch
		// path; never killing at defs keeps the analysis sound at the
		// cost of retaining the occasional doubly-defined temp.
		uses, un := in.Uses()
		for k := 0; k < un; k++ {
			liveV[uses[k]] = true
		}
	}
	if removed == 0 {
		return false
	}

	held := &s.held
	clear(held[:])
	enables := false
	kept := 0
	for i := 0; i < n; i++ {
		k := newPos[i]
		newPos[i] = kept // new position of i, or of the next survivor
		in := b.Code[i]
		d := in.Def()
		if k == 0 {
			enables = enables || held[d]
			continue
		}
		b.Code[kept] = in
		kept++
		if d != 0 {
			held[d] = isGuestLoad(in.Op)
		}
		if src, ok := copySource(in.Inst); ok {
			held[src] = true
		}
		if in.Op == rawisa.GSW && in.Rt != 0 {
			held[in.Rt] = true
		}
	}
	newPos[n] = kept
	b.Code = b.Code[:kept]
	for li, p := range b.LabelPos {
		if p >= 0 {
			b.LabelPos[li] = newPos[p]
		}
	}
	labelTargets(b, targets)
	return enables
}
