package opt_test

import (
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// The optimizer as it stood before its passes read the per-opcode
// use/def tables (rawisa's UseRegs and Def): the same four passes, load
// hoisting and sweep loop, written against a switch per instruction and
// closures over the fact tables. FuzzOptMatchesReference holds Run to
// it instruction for instruction. Nothing outside this file calls it.

// refScratch is the working storage of one optimizer: the branch-target
// and position tables sized to the largest block seen so far, and the
// passes' dataflow tables. Every pass clears what it reads before it
// starts — a fact table at a cost proportional to the facts the last
// pass left in it, not to its 256 entries — so nothing carries from one
// block to the next and a zero refScratch is ready to use. A translator
// owns one and runs every block through it; it is not safe for
// concurrent use.
type refScratch struct {
	targets []bool
	pos     []int // deadCode's position map

	known refFacts[uint32]   // constFold: register -> constant
	alias refFacts[uint8]    // copyProp: register -> source it copies
	avail refFacts[refAvail] // redundantLoads: address reg -> available value
	liveV [256]bool          // deadCode: vregs read later in the block
	held  [256]bool          // deadCode: registers a kept instruction holds a fact about
}

// Run applies all passes to the block in place, then hoists loads once
// to hide load-use latency. It repeats the sweep (at most four times)
// only while the last one can enable another: redundantLoads rewrote a
// load into a copy, or deadCode removed a def that had cut a fact short.
// constFold and copyProp are idempotent and neither's rewrites enable
// the other, so after any other sweep the next would change nothing:
// the result is the fixpoint, one confirmation sweep sooner.
func (s *refScratch) Run(b *ir.Block) {
	targets := s.targetsOf(b)
	for i := 0; i < 4; i++ {
		s.constFold(b, targets)
		s.copyProp(b, targets)
		again := s.redundantLoads(b, targets)
		if !s.deadCode(b, targets) && !again {
			break
		}
	}
	refHoistLoads(b, targets)
}

// targetsOf sizes the per-instruction tables for b, which only shrinks
// from here on, and returns its branch-target marks.
func (s *refScratch) targetsOf(b *ir.Block) []bool {
	n := len(b.Code) + 1
	if cap(s.targets) < n {
		s.targets, s.pos = make([]bool, n), make([]int, n)
	}
	return refLabelTargets(b, s.targets[:n])
}

// refLabelTargets marks in t (len > len(b.Code)) the instruction indices
// that are branch targets: join points where dataflow facts must be
// dropped. Computed once per Run; deadCode re-marks it when it moves
// labels.
func refLabelTargets(b *ir.Block, t []bool) []bool {
	clear(t)
	for _, pos := range b.LabelPos {
		if pos >= 0 {
			t[pos] = true
		}
	}
	return t
}

// refFacts is one pass's dataflow facts keyed by register: a dense
// table over the whole uint8 register space (so every register number
// is a valid index and no fact can be lost to a collision) plus the
// list of registers that currently hold a fact, so dropping everything
// at a join, or everything that mentions a register, costs O(facts
// held) rather than O(256).
type refFacts[T any] struct {
	val  [256]T
	has  [256]bool
	pos  [256]uint8 // index of r in live, valid iff has[r]
	live [256]uint8
	n    int
}

func (f *refFacts[T]) get(r uint8) (T, bool) { return f.val[r], f.has[r] }

func (f *refFacts[T]) set(r uint8, v T) {
	if !f.has[r] {
		f.has[r], f.pos[r], f.live[f.n] = true, uint8(f.n), r
		f.n++
	}
	f.val[r] = v
}

func (f *refFacts[T]) del(r uint8) {
	if !f.has[r] {
		return
	}
	f.n--
	last := f.live[f.n]
	f.live[f.pos[r]], f.pos[last] = last, f.pos[r]
	f.has[r] = false
}

// delIf drops every fact whose value matches.
func (f *refFacts[T]) delIf(match func(T) bool) {
	for i := 0; i < f.n; {
		if r := f.live[i]; match(f.val[r]) {
			f.del(r) // moves the last live register into slot i
		} else {
			i++
		}
	}
}

func (f *refFacts[T]) reset() {
	for _, r := range f.live[:f.n] {
		f.has[r] = false
	}
	f.n = 0
}

// refIsPure reports whether an op has no effect beyond writing Rd.
func refIsPure(op rawisa.Op) bool {
	switch op {
	case rawisa.NOP, rawisa.LUI, rawisa.ADDI, rawisa.ANDI, rawisa.ORI,
		rawisa.XORI, rawisa.SLTI, rawisa.SLTIU, rawisa.SLLI, rawisa.SRLI,
		rawisa.SRAI, rawisa.ADD, rawisa.SUB, rawisa.AND, rawisa.OR,
		rawisa.XOR, rawisa.NOR, rawisa.SLT, rawisa.SLTU, rawisa.SLL,
		rawisa.SRL, rawisa.SRA, rawisa.MFHI, rawisa.MFLO:
		return true
	}
	return false
}

// constFold tracks known register constants forward through the block
// and folds pure ALU results that become fully constant into immediate
// loads (LUI/ORI pairs are re-formed by later simplification in the
// builder idiom: we emit ADDI-from-zero for small values and keep
// LUI+ORI shapes otherwise). Facts are dropped at branch targets.
func (s *refScratch) constFold(b *ir.Block, targets []bool) {
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
		d := refDef(in.Inst)
		if refIsPure(in.Op) && d != 0 {
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
		if imm, ok := refImmForm(in.Inst, known); ok {
			in.Inst = imm
		}
		if d != 0 {
			known.del(d)
			if v, ok := fold(in.Inst); ok && refIsPure(in.Op) {
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

// refImmForm rewrites a reg-reg ALU op whose Rt (or commutable Rs) is a
// known small constant into the immediate form.
func refImmForm(in rawisa.Inst, known *refFacts[uint32]) (rawisa.Inst, bool) {
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
func (s *refScratch) copyProp(b *ir.Block, targets []bool) {
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
		uses, n := refUses(in.Inst)
		for k := 0; k < n; k++ {
			if src := resolve(uses[k]); src != uses[k] {
				if k == 0 {
					in.Rs = src
				} else {
					in.Rt = src
				}
			}
		}
		d := refDef(in.Inst)
		if d != 0 {
			invalidate(d)
			if src, ok := refCopySource(in.Inst); ok {
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

// refCopySource reports whether in is a register copy copyProp tracks —
// `OR rd, rs, r0` or `ADDI rd, rs, 0` with rs neither rd nor r0 — and
// returns rs.
func refCopySource(in rawisa.Inst) (uint8, bool) {
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
func (s *refScratch) deadCode(b *ir.Block, targets []bool) bool {
	n := len(b.Code)
	liveV := &s.liveV
	clear(liveV[:])
	newPos := s.pos[:n+1] // first 1 = kept, 0 = dead; then old index -> new index
	removed := 0

	for i := n - 1; i >= 0; i-- {
		in := b.Code[i]
		d := refDef(in.Inst)
		dead := refIsPure(in.Op) && d >= ir.FirstVReg && !liveV[d]
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
		uses, un := refUses(in.Inst)
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
		d := refDef(in.Inst)
		if k == 0 {
			enables = enables || held[d]
			continue
		}
		b.Code[kept] = in
		kept++
		if d != 0 {
			held[d] = refIsGuestLoad(in.Op)
		}
		if src, ok := refCopySource(in.Inst); ok {
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
	refLabelTargets(b, targets)
	return enables
}

// Memory-oriented passes: redundant-load elimination (including
// store-to-load forwarding through the same address register) and load
// hoisting to hide the guest-load use latency. Both are part of Run.

// refIsGuestLoad/refIsGuestStore classify the memory ops.
func refIsGuestLoad(op rawisa.Op) bool {
	switch op {
	case rawisa.GLB, rawisa.GLBU, rawisa.GLH, rawisa.GLHU, rawisa.GLW:
		return true
	}
	return false
}
func refIsGuestStore(op rawisa.Op) bool {
	switch op {
	case rawisa.GSB, rawisa.GSH, rawisa.GSW:
		return true
	}
	return false
}

// avail is a value redundantLoads knows to be in a register.
type refAvail struct {
	op  rawisa.Op // the load op that produced the value
	val uint8     // register holding the loaded/stored value
}

// redundantLoads replaces a guest load whose value is already known —
// from an earlier load at the same address register, or from a store
// through the same address register — with a register move. The
// address match is syntactic (same register, not redefined since), so
// no aliasing reasoning is needed: any intervening store, syscall, or
// assist invalidates everything.
func (s *refScratch) redundantLoads(b *ir.Block, targets []bool) bool {
	table := &s.avail
	table.reset()
	changed := false

	invalidateAll := table.reset
	invalidateReg := func(r uint8) {
		table.del(r)
		table.delIf(func(av refAvail) bool { return av.val == r })
	}

	for i := range b.Code {
		if targets[i] {
			invalidateAll()
		}
		in := &b.Code[i]
		switch {
		case refIsGuestLoad(in.Op):
			if av, ok := table.get(in.Rs); ok && av.op == in.Op && av.val != in.Rd {
				// Same op (size+extension) from the same address.
				b.Code[i].Inst = rawisa.Inst{Op: rawisa.OR, Rd: in.Rd, Rs: av.val, Rt: 0}
				changed = true
				invalidateReg(in.Rd)
				continue
			}
			d := in.Rd
			addr := in.Rs
			op := in.Op
			invalidateReg(d)
			if d != addr {
				table.set(addr, refAvail{op: op, val: d})
			}
			continue
		case refIsGuestStore(in.Op):
			// A store invalidates all remembered loads (no alias
			// analysis) but makes its own value available for
			// forwarding, with the op that a matching-size load uses.
			invalidateAll()
			if fwd, ok := refForwardOp(in.Op); ok && in.Rt != 0 {
				table.set(in.Rs, refAvail{op: fwd, val: in.Rt})
			}
			continue
		case in.Op == rawisa.SYSC || in.Op == rawisa.ASSIST:
			invalidateAll()
			continue
		}
		if d := refDef(in.Inst); d != 0 {
			invalidateReg(d)
		}
	}
	return changed
}

// refForwardOp returns the load op whose result equals the stored value
// after a store of that width. Only the full-width pairs are safe
// (a GSB stores the low byte, so only a zero-extending byte reload of
// a known-masked value would match — skip the narrow cases).
func refForwardOp(store rawisa.Op) (rawisa.Op, bool) {
	if store == rawisa.GSW {
		return rawisa.GLW, true
	}
	return 0, false
}

// refHoistLoads moves guest loads earlier past independent pure ALU
// instructions so the in-order pipeline's load-use latency is hidden
// (the paper's translator schedules instructions to hide functional
// unit latencies, §4.5). A load may not cross: a label (branch join),
// a branch, another memory operation, a syscall/assist, a definition
// of its address register, or any instruction touching its destination.
func refHoistLoads(b *ir.Block, targets []bool) bool {
	changed := false
	const maxHoist = 6

	for i := 1; i < len(b.Code); i++ {
		in := b.Code[i]
		if !refIsGuestLoad(in.Op) {
			continue
		}
		j := i
		for j > 0 && i-j < maxHoist {
			if targets[j] {
				break
			}
			prev := b.Code[j-1]
			if !refIsPure(prev.Op) || prev.Label != ir.NoLabel {
				break
			}
			uses, n := refUses(prev.Inst)
			blocked := refDef(prev.Inst) == in.Rs || refDef(prev.Inst) == in.Rd
			for k := 0; k < n && !blocked; k++ {
				if uses[k] == in.Rd {
					blocked = true
				}
			}
			if blocked {
				break
			}
			j--
		}
		if j == i {
			continue
		}
		// Rotate the load from position i up to position j.
		copy(b.Code[j+1:i+1], b.Code[j:i])
		b.Code[j] = in
		// Labels never point into (j, i] here (we stop at targets),
		// so no label fixup is needed.
		changed = true
	}
	return changed
}

// refUses and refDef are the use/def model the reference passes were
// written against: a switch per instruction, as Inst.Uses and Inst.Def
// were before the per-opcode table.
func refUses(i rawisa.Inst) (uses [2]uint8, n int) {
	switch i.Op {
	case rawisa.NOP, rawisa.LUI, rawisa.SYSC, rawisa.EXITI, rawisa.CHAIN, rawisa.ASSIST,
		rawisa.J, rawisa.JAL, rawisa.MFHI, rawisa.MFLO:
		return
	case rawisa.ADD, rawisa.SUB, rawisa.AND, rawisa.OR, rawisa.XOR, rawisa.NOR, rawisa.SLT,
		rawisa.SLTU, rawisa.SLL, rawisa.SRL, rawisa.SRA, rawisa.MULT, rawisa.MULTU, rawisa.DIV,
		rawisa.DIVU, rawisa.BEQ, rawisa.BNE, rawisa.SW, rawisa.GSB, rawisa.GSH, rawisa.GSW:
		uses[0], uses[1] = i.Rs, i.Rt
		n = 2
		return
	default:
		// I-format ALU, loads, single-register branches, JR, EXITR.
		uses[0] = i.Rs
		n = 1
		return
	}
}

func refDef(i rawisa.Inst) uint8 {
	switch i.Op {
	case rawisa.LUI, rawisa.ADDI, rawisa.ANDI, rawisa.ORI, rawisa.XORI, rawisa.SLTI,
		rawisa.SLTIU, rawisa.SLLI, rawisa.SRLI, rawisa.SRAI, rawisa.ADD, rawisa.SUB,
		rawisa.AND, rawisa.OR, rawisa.XOR, rawisa.NOR, rawisa.SLT, rawisa.SLTU, rawisa.SLL,
		rawisa.SRL, rawisa.SRA, rawisa.MFHI, rawisa.MFLO, rawisa.LW, rawisa.GLB, rawisa.GLBU,
		rawisa.GLH, rawisa.GLHU, rawisa.GLW:
		return i.Rd
	}
	return 0
}
