// Package codegen finalizes IR blocks into executable host code: it
// maps virtual registers onto the host temporary registers with a
// linear-scan allocator, resolves symbolic branch labels to relative
// word offsets, and encodes the result in the tile's 32-bit words.
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
	"slices"

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
	pos    []int32               // word offset of each instruction, and of the end
	due    []uint32              // registers that fall free at each instruction
	code   []rawisa.Word         // the block being finalized
}

// Finalize allocates registers and resolves labels in a Scratch of its
// own. The translator reuses one Scratch across blocks instead.
func Finalize(b *ir.Block) ([]rawisa.Word, error) { return new(Scratch).Finalize(b) }

// Finalize allocates registers, resolves labels and encodes, returning
// executable host code in a slice of its own, sized to the block and
// allocated only once the block has fit the registers. An instruction
// with no encoding (an immediate or offset too wide for its field) is
// an error, never a truncated word. The input block is not modified.
func (s *Scratch) Finalize(b *ir.Block) ([]rawisa.Word, error) {
	end, assign, owner := &s.end, &s.assign, &s.owner
	clear(end[:s.top+1])
	clear(assign[:s.top+1])
	// pos[i] is the word offset of instruction i, which labels resolve
	// to.
	pos := slices.Grow(s.pos[:0], len(b.Code)+1)[:len(b.Code)+1]
	s.pos = pos
	top := uint8(0)
	for i := range b.Code {
		in := &b.Code[i]
		pos[i+1] = pos[i] + int32(in.Op.Words())
		// A masked use lands on r0, which nothing allocates.
		rs, rt := in.UseRegs()
		end[rs], end[rt] = int32(i+1), int32(i+1)
		// A def with no later use still occupies its register at the
		// defining instruction.
		d := in.Def()
		if end[d] == 0 {
			end[d] = int32(i + 1)
		}
		top = max(top, rs, rt, d)
	}
	s.top = int(top)

	// free holds the temporaries no live vreg owns. A register falls
	// free at the first instruction past its owner's last use, which is
	// known when it is taken: due[i] holds the registers that fall free
	// at instruction i, so freeing them is one OR.
	free := tempPool
	due := slices.Grow(s.due[:0], len(b.Code)+1)[:len(b.Code)+1]
	clear(due)
	s.due = due

	code := s.code[:0]
	for i := range b.Code {
		in := &b.Code[i]
		free |= due[i]
		host := in.Inst
		// Physical registers map to themselves; a vreg read must be
		// live in the register it was assigned.
		rs, rt := in.UseRegs()
		if rs >= ir.FirstVReg {
			phys, err := s.lookup(rs, i, free)
			if err != nil {
				return nil, err
			}
			host.Rs = phys
		}
		if rt >= ir.FirstVReg {
			phys, err := s.lookup(rt, i, free)
			if err != nil {
				return nil, err
			}
			host.Rt = phys
		}
		if d := in.Def(); d >= ir.FirstVReg {
			phys := assign[d]
			if phys == 0 || free&(1<<phys) != 0 || owner[phys] != d {
				// First def, or a redefinition after the register
				// was freed: take the lowest-numbered free register.
				if free == 0 {
					return nil, ErrRegPressure
				}
				phys = uint8(bits.TrailingZeros32(free))
				free &^= 1 << phys
				assign[d], owner[phys] = phys, d
				// A redefinition past the last use still holds its
				// register through this instruction.
				due[max(end[d], int32(i+1))] |= 1 << phys
			}
			host.Rd = phys
		}
		switch host.Op {
		case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
			// A branch offset counts words from the word after it.
			if in.Label == ir.NoLabel {
				return nil, fmt.Errorf("codegen: branch without label at %d", i)
			}
			host.Imm = pos[b.LabelPos[in.Label]] - pos[i+1]
		}
		var err error
		if code, err = rawisa.Append(code, &host); err != nil {
			return nil, fmt.Errorf("codegen: instruction %d: %w", i, err)
		}
	}
	s.code = code
	return slices.Clone(code), nil
}

// lookup returns the register vreg r is live in at instruction i.
func (s *Scratch) lookup(r uint8, i int, free uint32) (uint8, error) {
	if phys := s.assign[r]; phys != 0 {
		if free&(1<<phys) == 0 && s.owner[phys] == r {
			return phys, nil
		}
		return 0, fmt.Errorf("codegen: use of dead vreg %d at %d", r, i)
	}
	return 0, fmt.Errorf("codegen: use of undefined vreg %d at %d", r, i)
}
