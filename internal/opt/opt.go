// Package opt implements the translator's optimization passes over IR
// blocks: constant folding and propagation, copy propagation, and dead
// code elimination. The paper applies full optimization to every block
// because translation runs off the critical path on slave tiles
// (§2.1); Figure 8 measures the win, which these passes regenerate.
//
// All passes preserve two invariants: physical registers (pinned guest
// state) are always live out of the block, and instructions with side
// effects (guest memory, syscalls, assists, exits, branches) are never
// removed or reordered.
//
// One sweep of the four passes is usually final. Run sweeps again only
// when the last sweep left something a pass can still use (see Run and
// deadCode), so it stops exactly where repeating until nothing changes
// would, without the sweep that only confirms it.
package opt

import (
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// Scratch is the working storage of one optimizer: the branch-target
// and position tables sized to the largest block seen so far, and the
// passes' dataflow tables. Every pass clears what it reads before it
// starts — a fact table at a cost proportional to the facts the last
// pass left in it, not to its 256 entries — so nothing carries from one
// block to the next and a zero Scratch is ready to use. A translator
// owns one and runs every block through it; it is not safe for
// concurrent use.
type Scratch struct {
	targets []bool
	pos     []int // deadCode's position map

	known regFacts[uint32] // constFold: register -> constant
	alias regFacts[uint8]  // copyProp: register -> source it copies
	avail regFacts[avail]  // redundantLoads: address reg -> available value
	liveV [256]bool        // deadCode: vregs read later in the block
	held  [256]bool        // deadCode: registers a kept instruction holds a fact about
}

// Run applies all passes to the block in place, in a Scratch of its
// own. The translator reuses one Scratch across blocks instead.
func Run(b *ir.Block) { new(Scratch).Run(b) }

// Run applies all passes to the block in place, then hoists loads once
// to hide load-use latency. It repeats the sweep (at most four times)
// only while the last one can enable another: redundantLoads rewrote a
// load into a copy, or deadCode removed a def that had cut a fact short.
// constFold and copyProp are idempotent and neither's rewrites enable
// the other, so after any other sweep the next would change nothing:
// the result is the fixpoint, one confirmation sweep sooner.
func (s *Scratch) Run(b *ir.Block) {
	targets := s.targetsOf(b)
	for i := 0; i < 4; i++ {
		s.constFold(b, targets)
		s.copyProp(b, targets)
		again := s.redundantLoads(b, targets)
		if !s.deadCode(b, targets) && !again {
			break
		}
	}
	hoistLoads(b, targets)
}

// targetsOf sizes the per-instruction tables for b, which only shrinks
// from here on, and returns its branch-target marks.
func (s *Scratch) targetsOf(b *ir.Block) []bool {
	n := len(b.Code) + 1
	if cap(s.targets) < n {
		s.targets, s.pos = make([]bool, n), make([]int, n)
	}
	return labelTargets(b, s.targets[:n])
}

// labelTargets marks in t (len > len(b.Code)) the instruction indices
// that are branch targets: join points where dataflow facts must be
// dropped. Computed once per Run; deadCode re-marks it when it moves
// labels.
func labelTargets(b *ir.Block, t []bool) []bool {
	clear(t)
	for _, pos := range b.LabelPos {
		if pos >= 0 {
			t[pos] = true
		}
	}
	return t
}

// regFacts is one pass's dataflow facts keyed by register: a dense
// table over the whole uint8 register space (so every register number
// is a valid index and no fact can be lost to a collision) plus the
// list of registers that currently hold a fact, so dropping everything
// at a join, or everything that mentions a register, costs O(facts
// held) rather than O(256).
type regFacts[T any] struct {
	val  [256]T
	has  [256]bool
	pos  [256]uint8 // index of r in live, valid iff has[r]
	live [256]uint8
	n    int
}

func (f *regFacts[T]) get(r uint8) (T, bool) { return f.val[r], f.has[r] }

func (f *regFacts[T]) set(r uint8, v T) {
	if !f.has[r] {
		f.has[r], f.pos[r], f.live[f.n] = true, uint8(f.n), r
		f.n++
	}
	f.val[r] = v
}

func (f *regFacts[T]) del(r uint8) {
	if !f.has[r] {
		return
	}
	f.n--
	last := f.live[f.n]
	f.live[f.pos[r]], f.pos[last] = last, f.pos[r]
	f.has[r] = false
}

// delIf drops every fact whose value matches.
func (f *regFacts[T]) delIf(match func(T) bool) {
	for i := 0; i < f.n; {
		if r := f.live[i]; match(f.val[r]) {
			f.del(r) // moves the last live register into slot i
		} else {
			i++
		}
	}
}

func (f *regFacts[T]) reset() {
	for _, r := range f.live[:f.n] {
		f.has[r] = false
	}
	f.n = 0
}

// isPure reports whether an op has no effect beyond writing Rd.
func isPure(op rawisa.Op) bool {
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
