// Package ir is the translator's low-level intermediate representation:
// host (Raw) instructions over an infinite set of virtual registers,
// with symbolic branch labels, grouped into single-entry translation
// blocks. The guest architectural registers are pinned to fixed host
// registers (rawisa.RegEAX..RegFlags) and appear directly; temporaries
// are virtual registers ≥ FirstVReg that the register allocator later
// maps onto the host temp registers (with spills to tile-local scratch
// memory if needed).
//
// This is the "MIPS-like IR" of the paper's translation pipeline; the
// "x86-like IR" upstream is the decoded guest instruction stream plus
// flag-liveness annotations (package translate).
package ir

import (
	"fmt"

	"tilevm/internal/rawisa"
)

// FirstVReg is the first virtual register number. Physical registers
// occupy 0..31.
const FirstVReg = 32

// NoLabel marks an instruction with no branch label.
const NoLabel = -1

// Inst is one IR instruction: a host instruction whose register fields
// may name virtual registers and whose branch target is symbolic.
type Inst struct {
	rawisa.Inst
	Label int // branch target label, or NoLabel
}

// Block is a translation unit: the host code for one guest basic block.
type Block struct {
	// GuestAddr is the guest virtual address of the first instruction.
	GuestAddr uint32
	// GuestLen is the number of guest code bytes covered.
	GuestLen uint32
	// NumGuest is the number of guest instructions translated.
	NumGuest int
	// Code is the instruction sequence. Control flow may only go
	// forward or to labels within the block; every path ends in an
	// exit (EXITI/EXITR/CHAIN) or SYSC-terminated exit.
	Code []Inst
	// LabelPos maps label ids to instruction indices (set by Finish).
	LabelPos []int
	// NumVRegs is the number of virtual registers allocated.
	NumVRegs int
}

// Builder constructs a Block.
type Builder struct {
	b         Block
	nextVReg  uint8
	numLabels int
	finished  bool
}

// NewBuilder starts a block at the given guest address.
func NewBuilder(guestAddr uint32) *Builder {
	bl := new(Builder)
	bl.Reset(guestAddr)
	return bl
}

// Reset starts a new block at the given guest address in the storage of
// the builder's previous one, so a builder that is reused grows its
// code and label slices once, to the largest block it has seen. The
// Block an earlier Finish returned is overwritten: a caller that wants
// to keep any of it copies it out first.
func (bl *Builder) Reset(guestAddr uint32) {
	*bl = Builder{
		b: Block{
			GuestAddr: guestAddr,
			Code:      bl.b.Code[:0],
			LabelPos:  bl.b.LabelPos[:0],
		},
		nextVReg: FirstVReg,
	}
}

// VReg allocates a fresh virtual register.
func (bl *Builder) VReg() uint8 {
	if bl.nextVReg == 0 { // wrapped past 255
		panic("ir: virtual register space exhausted; split the block")
	}
	r := bl.nextVReg
	bl.nextVReg++
	return r
}

// VRegsInUse returns the number of virtual registers allocated so far.
func (bl *Builder) VRegsInUse() int { return int(bl.nextVReg) - FirstVReg }

// NewLabel allocates a label to be bound later with Bind.
func (bl *Builder) NewLabel() int {
	id := bl.numLabels
	bl.numLabels++
	return id
}

// Bind attaches a label to the next emitted instruction.
func (bl *Builder) Bind(label int) {
	for len(bl.b.LabelPos) <= label {
		bl.b.LabelPos = append(bl.b.LabelPos, -1)
	}
	if bl.b.LabelPos[label] != -1 {
		panic("ir: label bound twice")
	}
	bl.b.LabelPos[label] = len(bl.b.Code)
}

// Emit appends a non-branching instruction.
func (bl *Builder) Emit(in rawisa.Inst) { bl.emit(in.Op, in.Rd, in.Rs, in.Rt, in.Imm, NoLabel) }

// EmitBranch appends a conditional branch to a label.
func (bl *Builder) EmitBranch(in rawisa.Inst, label int) {
	bl.emit(in.Op, in.Rd, in.Rs, in.Rt, in.Imm, label)
}

// Common emission helpers.

// Op3 emits a three-register ALU op.
func (bl *Builder) Op3(op rawisa.Op, rd, rs, rt uint8) { bl.emit(op, rd, rs, rt, 0, NoLabel) }

// OpI emits an immediate ALU op.
func (bl *Builder) OpI(op rawisa.Op, rd, rs uint8, imm int32) { bl.emit(op, rd, rs, 0, imm, NoLabel) }

// emit appends one instruction, given field by field, so that an
// emission stores its fields straight into the code slice; the lowerer
// emits about 30 a block.
func (bl *Builder) emit(op rawisa.Op, rd, rs, rt uint8, imm int32, label int) {
	bl.b.Code = append(bl.b.Code, Inst{Label: label})
	in := &bl.b.Code[len(bl.b.Code)-1]
	in.Op, in.Rd, in.Rs, in.Rt, in.Imm = op, rd, rs, rt, imm
}

// Move emits rd = rs.
func (bl *Builder) Move(rd, rs uint8) {
	if rd == rs {
		return
	}
	bl.Op3(rawisa.OR, rd, rs, rawisa.RegZero)
}

// LoadImm emits rd = v using LUI/ORI (or a single instruction when the
// constant fits).
func (bl *Builder) LoadImm(rd uint8, v uint32) {
	switch {
	case v == 0:
		bl.Move(rd, rawisa.RegZero)
	case rawisa.FitsSImm(int32(v)):
		bl.OpI(rawisa.ADDI, rd, rawisa.RegZero, int32(v))
	case v&0xffff == 0:
		bl.OpI(rawisa.LUI, rd, 0, int32(v>>16))
	default:
		bl.OpI(rawisa.LUI, rd, 0, int32(v>>16))
		bl.OpI(rawisa.ORI, rd, rd, int32(v&0xffff))
	}
}

// AddImm emits rd = rs + v, splitting wide constants.
func (bl *Builder) AddImm(rd, rs uint8, v int32) {
	if v == 0 {
		bl.Move(rd, rs)
		return
	}
	if rawisa.FitsSImm(v) {
		bl.OpI(rawisa.ADDI, rd, rs, v)
		return
	}
	t := bl.VReg()
	bl.LoadImm(t, uint32(v))
	bl.Op3(rawisa.ADD, rd, rs, t)
}

// ExitImm emits a non-chainable exit to a literal guest PC.
func (bl *Builder) ExitImm(guestPC uint32) {
	bl.Emit(rawisa.Inst{Op: rawisa.EXITI, Imm: int32(guestPC)})
}

// Chain emits a chainable direct-branch exit to a guest PC.
func (bl *Builder) Chain(guestPC uint32) {
	bl.Emit(rawisa.Inst{Op: rawisa.CHAIN, Imm: int32(guestPC)})
}

// ExitReg emits an exit whose next guest PC is in a register.
func (bl *Builder) ExitReg(rs uint8) {
	bl.Emit(rawisa.Inst{Op: rawisa.EXITR, Rs: rs})
}

// Finish validates and returns the block.
func (bl *Builder) Finish(guestLen uint32, numGuest int) (*Block, error) {
	if bl.finished {
		panic("ir: Finish called twice")
	}
	bl.finished = true
	bl.b.GuestLen = guestLen
	bl.b.NumGuest = numGuest
	bl.b.NumVRegs = bl.VRegsInUse()
	if err := bl.b.Validate(); err != nil {
		return nil, err
	}
	return &bl.b, nil
}

// Validate checks structural invariants: all labels bound, branches
// reference valid labels, the block is exit-terminated, and no path
// falls off the end.
func (b *Block) Validate() error {
	if len(b.Code) == 0 {
		return fmt.Errorf("ir: empty block at %#x", b.GuestAddr)
	}
	for i, in := range b.Code {
		switch in.Op {
		case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
			if in.Label == NoLabel || in.Label >= len(b.LabelPos) ||
				b.LabelPos[in.Label] < 0 || b.LabelPos[in.Label] >= len(b.Code) {
				return fmt.Errorf("ir: branch at %d has invalid label", i)
			}
		case rawisa.J, rawisa.JAL, rawisa.JR:
			return fmt.Errorf("ir: raw jump at %d not allowed in IR (use exits)", i)
		}
	}
	last := b.Code[len(b.Code)-1]
	if !last.IsBlockEnd() {
		return fmt.Errorf("ir: block at %#x does not end in an exit (%v)", b.GuestAddr, last.Inst)
	}
	return nil
}

// String renders the block for debugging.
func (b *Block) String() string {
	out := fmt.Sprintf("block %#x (%d guest insts, %d bytes):\n", b.GuestAddr, b.NumGuest, b.GuestLen)
	labelAt := map[int][]int{}
	for id, pos := range b.LabelPos {
		labelAt[pos] = append(labelAt[pos], id)
	}
	for i, in := range b.Code {
		for _, l := range labelAt[i] {
			out += fmt.Sprintf("L%d:\n", l)
		}
		if in.Label != NoLabel {
			out += fmt.Sprintf("%4d: %v -> L%d\n", i, in.Inst.Op, in.Label)
			continue
		}
		out += fmt.Sprintf("%4d: %v\n", i, in.Inst)
	}
	return out
}
