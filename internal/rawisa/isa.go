// Package rawisa defines the host instruction set of the simulated Raw
// tile processor: a MIPS-like 32-bit RISC ISA extended with a small set
// of dynamic-binary-translation pseudo-operations (guest memory access,
// guest syscall, block exit, and chainable direct-branch sites).
//
// The real Raw tile ISA is MIPS-derived; the DBT pseudo-ops stand in for
// instruction sequences (inline software address translation, trap
// stubs) whose cycle costs the execution engine charges explicitly. See
// DESIGN.md §2 for the substitution rationale.
package rawisa

import "fmt"

// NumRegs is the size of the host register file. Register 0 is
// hardwired to zero, as on MIPS.
const NumRegs = 32

// Conventional register assignments used by the code generator. Guest
// x86 architectural state lives pinned in host registers so no state
// save/restore is needed between translated blocks.
const (
	RegZero  = 0  // hardwired zero
	RegEAX   = 1  // guest EAX
	RegECX   = 2  // guest ECX
	RegEDX   = 3  // guest EDX
	RegEBX   = 4  // guest EBX
	RegESP   = 5  // guest ESP
	RegEBP   = 6  // guest EBP
	RegESI   = 7  // guest ESI
	RegEDI   = 8  // guest EDI
	RegFlags = 9  // guest EFLAGS, packed in x86 bit layout
	RegTmp0  = 10 // first allocatable temporary
	RegTmpN  = 24 // last allocatable temporary (inclusive)
	RegAsm   = 25 // assembler/stub scratch
	RegNext  = 26 // next guest PC at block exit
	RegRT0   = 27 // reserved for runtime
	RegRT1   = 28
	RegRT2   = 29
	RegRT3   = 30
	RegLink  = 31 // link register for JAL
)

// Op is a host opcode.
type Op uint8

// Host opcodes. Arithmetic and branch semantics follow MIPS; the guest
// pseudo-ops are documented individually.
const (
	NOP Op = iota

	// Immediate ALU. Imm is sign-extended for ADDI/SLTI, zero-extended
	// for logical ops, and the shift amount for SLLI/SRLI/SRAI.
	LUI  // rd = imm << 16
	ADDI // rd = rs + simm
	ANDI
	ORI
	XORI
	SLTI  // rd = int32(rs) < simm
	SLTIU // rd = uint32(rs) < uint32(simm)
	SLLI
	SRLI
	SRAI

	// Three-register ALU.
	ADD // rd = rs + rt (no overflow trap; MIPS ADDU)
	SUB
	AND
	OR
	XOR
	NOR
	SLT
	SLTU
	SLL // rd = rt << (rs&31)
	SRL
	SRA

	// Multiply/divide write the HI/LO pair; MFHI/MFLO read it.
	MULT
	MULTU
	DIV
	DIVU
	MFHI
	MFLO

	// Host memory: runtime-private scratch/spill storage on the tile
	// (not guest memory). Address is rs+simm.
	LW
	SW

	// Control flow within a translated block (offsets are in
	// instructions, relative to the next instruction).
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ
	J   // absolute instruction index within the L1 code cache
	JAL // J with link; used by runtime stubs
	JR

	// Guest memory access through the software-MMU path. The guest
	// virtual address is in rs (already computed by preceding real
	// instructions); the execution engine charges the software
	// translation occupancy and consults the tile D-cache, going over
	// the network to the MMU and L2 bank tiles on a miss.
	GLB  // rd = sext8(guest[rs])
	GLBU // rd = zext8(guest[rs])
	GLH  // rd = sext16(guest[rs])
	GLHU // rd = zext16(guest[rs])
	GLW  // rd = guest32(guest[rs])
	GSB  // guest[rs] = rt & 0xff
	GSH  // guest[rs] = rt & 0xffff
	GSW  // guest[rs] = rt

	// SYSC traps to the syscall proxy tile. Guest registers carry the
	// Linux int 0x80 ABI (EAX = number, EBX.. = args).
	SYSC

	// EXITI exits the block with the literal next guest PC in Target.
	// EXITR exits with the next guest PC in rs (indirect branches).
	EXITI
	EXITR

	// CHAIN is a patchable direct-branch site carrying the target guest
	// PC in Target. Unpatched it behaves as EXITI; once the target block
	// is resident in the L1 code cache it is patched to behave as J.
	CHAIN

	// ASSIST executes the single guest instruction at Target through
	// the interpreter fallback on the execution tile — the standard DBT
	// slow path for instructions not worth inlining (wide divides,
	// REP-prefixed string ops). The execution engine charges an
	// occupancy that scales with the work performed and routes the
	// instruction's memory traffic through the normal guest-memory
	// path. ASSIST does not end the block.
	ASSIST

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", LUI: "lui", ADDI: "addi", ANDI: "andi", ORI: "ori",
	XORI: "xori", SLTI: "slti", SLTIU: "sltiu", SLLI: "slli",
	SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor", NOR: "nor",
	SLT: "slt", SLTU: "sltu", SLL: "sll", SRL: "srl", SRA: "sra",
	MULT: "mult", MULTU: "multu", DIV: "div", DIVU: "divu",
	MFHI: "mfhi", MFLO: "mflo",
	LW: "lw", SW: "sw",
	BEQ: "beq", BNE: "bne", BLEZ: "blez", BGTZ: "bgtz",
	BLTZ: "bltz", BGEZ: "bgez", J: "j", JAL: "jal", JR: "jr",
	GLB: "glb", GLBU: "glbu", GLH: "glh", GLHU: "glhu", GLW: "glw",
	GSB: "gsb", GSH: "gsh", GSW: "gsw",
	SYSC: "sysc", EXITI: "exiti", EXITR: "exitr", CHAIN: "chain",
	ASSIST: "assist",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is a decoded host instruction. Rd/Rs/Rt are register indices;
// Imm is the sign-carrying immediate (ALU immediates, branch offsets,
// host-memory displacements); Target carries a guest PC for
// EXITI/CHAIN and the absolute code-cache index for J/JAL.
type Inst struct {
	Op     Op
	Rd     uint8
	Rs     uint8
	Rt     uint8
	Imm    int32
	Target uint32
}

// Words returns the encoded size of the instruction in 32-bit words.
// EXITI and CHAIN carry a full 32-bit guest PC and occupy two words
// (opcode word + target word); everything else is one word.
func (i Inst) Words() int {
	switch i.Op {
	case EXITI, CHAIN, ASSIST:
		return 2
	}
	return 1
}

// Bytes returns the encoded size in bytes.
func (i Inst) Bytes() int { return i.Words() * 4 }

// CodeBytes returns the encoded size of a code sequence in bytes; this
// is what counts against code-cache capacity budgets.
func CodeBytes(code []Inst) int {
	n := 0
	for _, in := range code {
		n += in.Bytes()
	}
	return n
}

// IsBlockEnd reports whether the instruction unconditionally leaves the
// block (no fallthrough to the next instruction in the sequence).
func (i Inst) IsBlockEnd() bool {
	switch i.Op {
	case J, JR, EXITI, EXITR, CHAIN:
		return true
	}
	return false
}

// Uses returns the registers the instruction reads explicitly (the
// pinned guest registers SYSC and ASSIST touch implicitly are not
// listed). This and Def are the one use/def model shared by the
// optimizer and the register allocator.
func (i Inst) Uses() (uses [2]uint8, n int) {
	switch i.Op {
	case NOP, LUI, SYSC, EXITI, CHAIN, ASSIST, J, JAL, MFHI, MFLO:
		return
	case ADD, SUB, AND, OR, XOR, NOR, SLT, SLTU, SLL, SRL, SRA,
		MULT, MULTU, DIV, DIVU, BEQ, BNE, SW, GSB, GSH, GSW:
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

// Def returns the register the instruction writes, or 0 (the hardwired
// zero register, meaning "no def").
func (i Inst) Def() uint8 {
	switch i.Op {
	case LUI, ADDI, ANDI, ORI, XORI, SLTI, SLTIU, SLLI, SRLI, SRAI,
		ADD, SUB, AND, OR, XOR, NOR, SLT, SLTU, SLL, SRL, SRA,
		MFHI, MFLO, LW, GLB, GLBU, GLH, GLHU, GLW:
		return i.Rd
	}
	return 0
}

// IsGuestLoad reports whether the op reads guest memory.
func (o Op) IsGuestLoad() bool {
	switch o {
	case GLB, GLBU, GLH, GLHU, GLW:
		return true
	}
	return false
}

// IsGuestStore reports whether the op writes guest memory.
func (o Op) IsGuestStore() bool {
	switch o {
	case GSB, GSH, GSW:
		return true
	}
	return false
}

// GuestAccessBytes returns the guest-memory access width of a guest
// load/store op, or 0 for other ops.
func (o Op) GuestAccessBytes() int {
	switch o {
	case GLB, GLBU, GSB:
		return 1
	case GLH, GLHU, GSH:
		return 2
	case GLW, GSW:
		return 4
	}
	return 0
}

func (i Inst) String() string {
	switch i.Op {
	case NOP, SYSC:
		return i.Op.String()
	case LUI:
		return fmt.Sprintf("%s r%d, %#x", i.Op, i.Rd, uint32(i.Imm))
	case ADDI, ANDI, ORI, XORI, SLTI, SLTIU, SLLI, SRLI, SRAI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs, i.Imm)
	case ADD, SUB, AND, OR, XOR, NOR, SLT, SLTU, SLL, SRL, SRA:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	case MULT, MULTU, DIV, DIVU:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Rs, i.Rt)
	case MFHI, MFLO:
		return fmt.Sprintf("%s r%d", i.Op, i.Rd)
	case LW, GLB, GLBU, GLH, GLHU, GLW:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs)
	case SW, GSB, GSH, GSW:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rt, i.Imm, i.Rs)
	case BEQ, BNE:
		return fmt.Sprintf("%s r%d, r%d, %+d", i.Op, i.Rs, i.Rt, i.Imm)
	case BLEZ, BGTZ, BLTZ, BGEZ:
		return fmt.Sprintf("%s r%d, %+d", i.Op, i.Rs, i.Imm)
	case J, JAL:
		return fmt.Sprintf("%s %#x", i.Op, i.Target)
	case JR, EXITR:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs)
	case EXITI, CHAIN, ASSIST:
		return fmt.Sprintf("%s guest:%#x", i.Op, i.Target)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d, %d, %#x", i.Op, i.Rd, i.Rs, i.Rt, i.Imm, i.Target)
}

// Disassemble renders a code sequence one instruction per line.
func Disassemble(code []Inst) string {
	out := ""
	for idx, in := range code {
		out += fmt.Sprintf("%4d: %s\n", idx, in.String())
	}
	return out
}
