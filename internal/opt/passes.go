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

	for i := range b.Code {
		if targets[i] {
			known.reset()
			known.set(0, 0)
		}
		in := &b.Code[i]
		d := in.Def()
		if d != 0 && isPure(in.Op) {
			if v, ok := fold(&in.Inst, known); ok {
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
		// immediate forms. The result does not fold either: it reads
		// the operand that kept the original from folding.
		immForm(&in.Inst, known)
		if d != 0 {
			known.del(d)
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

// fold returns the value a pure instruction computes when every
// register it reads is a known constant. r0 is always known, as 0, so
// an operand UseRegs masks reads as known.
func fold(in *rawisa.Inst, known *regFacts[uint32]) (uint32, bool) {
	rs, rt := in.UseRegs()
	if !known.has[rs] || !known.has[rt] {
		return 0, false
	}
	a, bv, imm := known.val[rs], known.val[rt], uint32(in.Imm)
	switch in.Op {
	case rawisa.LUI:
		return imm << 16, true
	case rawisa.ADDI:
		return a + imm, true
	case rawisa.ANDI:
		return a & uint32(uint16(imm)), true
	case rawisa.ORI:
		return a | uint32(uint16(imm)), true
	case rawisa.XORI:
		return a ^ uint32(uint16(imm)), true
	case rawisa.SLTI:
		return b2u(int32(a) < in.Imm), true
	case rawisa.SLTIU:
		return b2u(a < imm), true
	case rawisa.SLLI:
		return a << (imm & 31), true
	case rawisa.SRLI:
		return a >> (imm & 31), true
	case rawisa.SRAI:
		return uint32(int32(a) >> (imm & 31)), true
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
		return b2u(int32(a) < int32(bv)), true
	case rawisa.SLTU:
		return b2u(a < bv), true
	case rawisa.SLL:
		return bv << (a & 31), true
	case rawisa.SRL:
		return bv >> (a & 31), true
	case rawisa.SRA:
		return uint32(int32(bv) >> (a & 31)), true
	}
	return 0, false
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// immRule is the immediate form of a reg-reg ALU op: its opcode, whether
// the op commutes (so a constant Rs can move into the immediate too),
// and whether the immediate is zero-extended.
type immRule struct {
	op             rawisa.Op
	comm, unsigned bool
}

var immForms = [256]immRule{
	rawisa.ADD:  {rawisa.ADDI, true, false},
	rawisa.AND:  {rawisa.ANDI, true, true},
	rawisa.OR:   {rawisa.ORI, true, true},
	rawisa.XOR:  {rawisa.XORI, true, true},
	rawisa.SLT:  {rawisa.SLTI, false, false},
	rawisa.SLTU: {rawisa.SLTIU, false, false},
}

func (f immRule) fits(v uint32) bool {
	if f.unsigned {
		return v <= rawisa.MaxUImm
	}
	return rawisa.FitsSImm(int32(v))
}

// immForm rewrites, in place, a reg-reg ALU op whose Rt (or commutable
// Rs) is a known small constant into the immediate form.
func immForm(in *rawisa.Inst, known *regFacts[uint32]) {
	f := immForms[in.Op]
	if f.op == rawisa.NOP {
		return
	}
	if v, ok := known.get(in.Rt); ok && in.Rt != 0 && f.fits(v) {
		*in = rawisa.Inst{Op: f.op, Rd: in.Rd, Rs: in.Rs, Imm: int32(v)}
		return
	}
	if f.comm {
		if v, ok := known.get(in.Rs); ok && in.Rs != 0 && f.fits(v) {
			*in = rawisa.Inst{Op: f.op, Rd: in.Rd, Rs: in.Rt, Imm: int32(v)}
		}
	}
}

// copyProp replaces uses of registers that are known copies of other
// registers. Only vreg→reg copies created by `OR rd, rs, r0` and
// `ADDI rd, rs, 0` are tracked; facts drop at branch targets and when
// either side is redefined. Physical guest registers are never
// rewritten as destinations.
//
// A source is never itself a copy (setting a copy resolves its source,
// and redefining a register drops the copies of it), so one lookup
// resolves a use. r0 is never a copy, so a field UseRegs masks is left
// alone.
func (s *Scratch) copyProp(b *ir.Block, targets []bool) {
	alias, copied := &s.alias, &s.copied
	alias.reset()
	clear(copied[:])

	for i := range b.Code {
		if targets[i] {
			alias.reset()
		}
		in := &b.Code[i]
		rs, rt := in.UseRegs()
		if alias.has[rs] {
			in.Rs = alias.val[rs]
		}
		if alias.has[rt] {
			in.Rt = alias.val[rt]
		}
		if d := in.Def(); d != 0 {
			// Drop d's own fact and every copy of d.
			alias.del(d)
			if copied[d] {
				copied[d] = false
				for k := 0; k < alias.n; {
					if r := alias.live[k]; alias.val[r] == d {
						alias.del(r) // moves the last live register into slot k
					} else {
						k++
					}
				}
			}
			if src, ok := copySource(&in.Inst); ok {
				if alias.has[src] {
					src = alias.val[src]
				}
				alias.set(d, src)
				copied[src] = true
			}
		}
		if in.Op == rawisa.SYSC || in.Op == rawisa.ASSIST {
			// Every fact about a pinned guest register goes.
			for k := 0; k < alias.n; {
				if r := alias.live[k]; r < ir.FirstVReg || alias.val[r] < ir.FirstVReg {
					alias.del(r)
				} else {
					k++
				}
			}
		}
	}
}

// copySource reports whether in is a register copy copyProp tracks —
// `OR rd, rs, r0` or `ADDI rd, rs, 0` with rs neither rd nor r0 — and
// returns rs.
func copySource(in *rawisa.Inst) (uint8, bool) {
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
		in := &b.Code[i]
		if d := in.Def(); in.Op == rawisa.NOP || d >= ir.FirstVReg && !liveV[d] && isPure(in.Op) {
			newPos[i] = 0
			removed++
			continue
		}
		newPos[i] = 1
		// Note: a kept def does NOT clear liveness. With forward
		// branches a def can be skipped at runtime, so an earlier def
		// of the same vreg may still reach a later use on the branch
		// path; never killing at defs keeps the analysis sound at the
		// cost of retaining the occasional doubly-defined temp. A
		// masked field marks r0, which is never a candidate.
		rs, rt := in.UseRegs()
		liveV[rs], liveV[rt] = true, true
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
		in := &b.Code[i]
		d := in.Def()
		if k == 0 {
			enables = enables || held[d]
			continue
		}
		b.Code[kept] = *in // kept <= i: in still reads instruction i
		kept++
		if d != 0 {
			held[d] = isGuestLoad(in.Op)
		}
		if src, ok := copySource(&in.Inst); ok {
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
