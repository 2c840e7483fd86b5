// Package codegen finalizes IR blocks into executable host code: it
// maps virtual registers onto the host temporary registers with a
// linear-scan allocator and resolves symbolic branch labels to relative
// instruction offsets.
//
// IR control flow within a block only branches forward, so positional
// live ranges ([definition, last use] by instruction index) are exact
// and linear scan is optimal-enough. Rather than spilling under
// pressure, the allocator reports ErrRegPressure and the translator
// retries with a smaller block — the same strategy real DBTs use when
// a superblock does not fit the scratch register budget.
package codegen

import (
	"errors"
	"fmt"
	"math/bits"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// ErrRegPressure reports that a block needs more live temporaries than
// the host has; retry translation with a smaller block.
var ErrRegPressure = errors.New("codegen: out of host temporary registers")

// NumTemps is the number of allocatable temporary registers.
const NumTemps = rawisa.RegTmpN - rawisa.RegTmp0 + 1

// tempPool is the set of host registers available for temporaries, as
// a bit per register number.
const tempPool uint32 = (1<<NumTemps - 1) << rawisa.RegTmp0

// Scratch is the allocator's working storage: dense tables over the
// uint8 register space. Finalize first clears the entries its previous
// block touched, so a translator that owns one (one per engine, not
// safe for concurrent use) pays for the registers a block names and not
// for 256 of them a block. The zero Scratch is ready to use.
type Scratch struct {
	// end[r] is one past the last position that touches register r; 0
	// means r has not been seen. Physical registers get entries too,
	// which nothing reads.
	end    [256]int32
	assign [256]uint8            // vreg -> phys; 0 = never assigned
	owner  [rawisa.NumRegs]uint8 // phys -> vreg, read for busy registers only
	top    int                   // highest register number in end and assign
}

// Finalize allocates registers and resolves labels in a Scratch of its
// own. The translator reuses one Scratch across blocks instead.
func Finalize(b *ir.Block) ([]rawisa.Inst, error) { return new(Scratch).Finalize(b) }

// Finalize allocates registers and resolves labels, returning
// executable host code in a slice of its own, sized to the block. The
// input block is not modified.
func (s *Scratch) Finalize(b *ir.Block) ([]rawisa.Inst, error) {
	end, assign, owner := &s.end, &s.assign, &s.owner
	clear(end[:s.top+1])
	clear(assign[:s.top+1])
	top := 0
	for i, in := range b.Code {
		uses, n := in.Uses()
		for k := 0; k < n; k++ {
			end[uses[k]] = int32(i + 1)
			top = max(top, int(uses[k]))
		}
		// A def with no later use still occupies its register at the
		// defining instruction.
		d := in.Def()
		if end[d] == 0 {
			end[d] = int32(i + 1)
		}
		top = max(top, int(d))
	}
	s.top = top

	free := tempPool

	expire := func(pos int) {
		for busy := tempPool &^ free; busy != 0; busy &= busy - 1 {
			phys := bits.TrailingZeros32(busy)
			if int(end[owner[phys]]) <= pos {
				free |= 1 << phys
			}
		}
	}

	mapReg := func(r uint8, pos int, isDef bool) (uint8, error) {
		if r < ir.FirstVReg {
			return r, nil
		}
		if phys := assign[r]; phys != 0 {
			if free&(1<<phys) == 0 && owner[phys] == r {
				return phys, nil
			}
			// Register was freed and the vreg is being redefined.
			if !isDef {
				return 0, fmt.Errorf("codegen: use of dead vreg %d at %d", r, pos)
			}
		}
		if !isDef {
			return 0, fmt.Errorf("codegen: use of undefined vreg %d at %d", r, pos)
		}
		if free == 0 {
			return 0, ErrRegPressure
		}
		// Deterministic: take the lowest-numbered free register.
		phys := uint8(bits.TrailingZeros32(free))
		free &^= 1 << phys
		assign[r] = phys
		owner[phys] = r
		return phys, nil
	}

	out := make([]rawisa.Inst, len(b.Code))
	for i, in := range b.Code {
		expire(i)
		host := in.Inst
		uses, n := host.Uses()
		for k := 0; k < n; k++ {
			mapped, err := mapReg(uses[k], i, false)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				host.Rs = mapped
			} else {
				host.Rt = mapped
			}
		}
		// Re-fetch non-use fields untouched: for ops where Rs/Rt are not
		// uses (e.g. MFHI), the loop above did not run for them.
		if d := in.Def(); d != 0 {
			mapped, err := mapReg(d, i, true)
			if err != nil {
				return nil, err
			}
			host.Rd = mapped
			// Extend in-use through this position even if never used
			// again (lastUse defaulted to the def position).
		}
		out[i] = host
	}

	// Resolve labels to relative instruction offsets (counted in
	// instructions from the instruction after the branch).
	for i := range out {
		switch out[i].Op {
		case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
			label := b.Code[i].Label
			if label == ir.NoLabel {
				return nil, fmt.Errorf("codegen: branch without label at %d", i)
			}
			target := b.LabelPos[label]
			out[i].Imm = int32(target - (i + 1))
		}
	}
	return out, nil
}
