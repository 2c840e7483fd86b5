package codegen_test

import (
	"fmt"
	"math/bits"
	"slices"

	"tilevm/internal/codegen"
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// The allocator as it stood before it read the per-opcode use/def
// tables (rawisa's UseRegs and Def): a loop over a use count per
// instruction, closures for mapReg and expire, and a scan of the busy
// registers at every instruction. FuzzFinalizeMatchesReference holds
// Finalize to it word for word and error for error. Nothing outside
// this file calls it.

const refTempPool uint32 = (1<<codegen.NumTemps - 1) << rawisa.RegTmp0

// refScratch is the allocator's working storage: dense tables over the
// uint8 register space. Finalize first clears the entries its previous
// block touched, so a translator that owns one (one per engine, not
// safe for concurrent use) pays for the registers a block names and not
// for 256 of them a block. The zero refScratch is ready to use.
type refScratch struct {
	// end[r] is one past the last position that touches register r; 0
	// means r has not been seen. Physical registers get entries too,
	// which nothing reads.
	end    [256]int32
	assign [256]uint8            // vreg -> phys; 0 = never assigned
	owner  [rawisa.NumRegs]uint8 // phys -> vreg, read for busy registers only
	top    int                   // highest register number in end and assign
	pos    []int32               // word offset of each instruction, and of the end
	code   []rawisa.Word         // the block being finalized
}

// Finalize allocates registers, resolves labels and encodes, returning
// executable host code in a slice of its own, sized to the block and
// allocated only once the block has fit the registers. An instruction
// with no encoding (an immediate or offset too wide for its field) is
// an error, never a truncated word. The input block is not modified.
func (s *refScratch) Finalize(b *ir.Block) ([]rawisa.Word, error) {
	end, assign, owner := &s.end, &s.assign, &s.owner
	clear(end[:s.top+1])
	clear(assign[:s.top+1])
	// pos[i] is the word offset of instruction i, which labels resolve
	// to.
	pos := slices.Grow(s.pos[:0], len(b.Code)+1)[:len(b.Code)+1]
	s.pos = pos
	top := 0
	for i, in := range b.Code {
		pos[i+1] = pos[i] + int32(in.Op.Words())
		uses, n := refUses(in.Inst)
		for k := 0; k < n; k++ {
			end[uses[k]] = int32(i + 1)
			top = max(top, int(uses[k]))
		}
		// A def with no later use still occupies its register at the
		// defining instruction.
		d := refDef(in.Inst)
		if end[d] == 0 {
			end[d] = int32(i + 1)
		}
		top = max(top, int(d))
	}
	s.top = top

	free := refTempPool

	expire := func(pos int) {
		for busy := refTempPool &^ free; busy != 0; busy &= busy - 1 {
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
			return 0, codegen.ErrRegPressure
		}
		// Deterministic: take the lowest-numbered free register.
		phys := uint8(bits.TrailingZeros32(free))
		free &^= 1 << phys
		assign[r] = phys
		owner[phys] = r
		return phys, nil
	}

	code := s.code[:0]
	for i, in := range b.Code {
		expire(i)
		host := in.Inst
		uses, n := refUses(host)
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
		if d := refDef(in.Inst); d != 0 {
			mapped, err := mapReg(d, i, true)
			if err != nil {
				return nil, err
			}
			host.Rd = mapped
			// Extend in-use through this position even if never used
			// again (lastUse defaulted to the def position).
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
