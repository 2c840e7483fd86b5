package opt

import (
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// Memory-oriented passes: redundant-load elimination (including
// store-to-load forwarding through the same address register) and load
// hoisting to hide the guest-load use latency. Both are part of Run.

// isGuestLoad/isGuestStore classify the memory ops.
func isGuestLoad(op rawisa.Op) bool  { return op.IsGuestLoad() }
func isGuestStore(op rawisa.Op) bool { return op.IsGuestStore() }

// avail is a value redundantLoads knows to be in a register.
type avail struct {
	op  rawisa.Op // the load op that produced the value
	val uint8     // register holding the loaded/stored value
}

// redundantLoads replaces a guest load whose value is already known —
// from an earlier load at the same address register, or from a store
// through the same address register — with a register move. The
// address match is syntactic (same register, not redefined since), so
// no aliasing reasoning is needed: any intervening store, syscall, or
// assist invalidates everything.
func (s *Scratch) redundantLoads(b *ir.Block, targets []bool) bool {
	table := &s.avail
	table.reset()
	changed := false

	invalidateAll := table.reset
	invalidateReg := func(r uint8) {
		table.del(r)
		table.delIf(func(av avail) bool { return av.val == r })
	}

	for i := range b.Code {
		if targets[i] {
			invalidateAll()
		}
		in := &b.Code[i]
		switch {
		case isGuestLoad(in.Op):
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
				table.set(addr, avail{op: op, val: d})
			}
			continue
		case isGuestStore(in.Op):
			// A store invalidates all remembered loads (no alias
			// analysis) but makes its own value available for
			// forwarding, with the op that a matching-size load uses.
			invalidateAll()
			if fwd, ok := forwardOp(in.Op); ok && in.Rt != 0 {
				table.set(in.Rs, avail{op: fwd, val: in.Rt})
			}
			continue
		case in.Op == rawisa.SYSC || in.Op == rawisa.ASSIST:
			invalidateAll()
			continue
		}
		if d := in.Def(); d != 0 {
			invalidateReg(d)
		}
	}
	return changed
}

// forwardOp returns the load op whose result equals the stored value
// after a store of that width. Only the full-width pairs are safe
// (a GSB stores the low byte, so only a zero-extending byte reload of
// a known-masked value would match — skip the narrow cases).
func forwardOp(store rawisa.Op) (rawisa.Op, bool) {
	if store == rawisa.GSW {
		return rawisa.GLW, true
	}
	return 0, false
}

// hoistLoads moves guest loads earlier past independent pure ALU
// instructions so the in-order pipeline's load-use latency is hidden
// (the paper's translator schedules instructions to hide functional
// unit latencies, §4.5). A load may not cross: a label (branch join),
// a branch, another memory operation, a syscall/assist, a definition
// of its address register, or any instruction touching its destination.
func hoistLoads(b *ir.Block, targets []bool) bool {
	changed := false
	const maxHoist = 6

	for i := 1; i < len(b.Code); i++ {
		in := b.Code[i]
		if !isGuestLoad(in.Op) {
			continue
		}
		j := i
		for j > 0 && i-j < maxHoist {
			if targets[j] {
				break
			}
			prev := b.Code[j-1]
			if !isPure(prev.Op) || prev.Label != ir.NoLabel {
				break
			}
			uses, n := prev.Uses()
			blocked := prev.Def() == in.Rs || prev.Def() == in.Rd
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
