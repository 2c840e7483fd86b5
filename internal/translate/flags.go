package translate

import (
	"slices"

	"tilevm/internal/x86"
)

// Condition-code liveness. Each guest instruction is annotated with the
// set of EFLAGS bits that may be observed after it executes; the
// lowerer materializes only those bits into the packed flags register.
//
// Within a block the analysis is an exact backward pass. At block exits
// the analysis follows the known successors forward (direct branches
// and fallthroughs) until every arithmetic flag has been defined or
// used, a bounded depth is reached, or control becomes indirect —
// unresolved flags are conservatively live. This reproduces the paper's
// "extensive dead flag elimination" soundly: decoding is deterministic,
// so a flag proven dead on every successor path really is dead.

// flagEffects returns the flag bits an instruction uses and the bits it
// must define (writes on every execution). Flags that are only
// conditionally written (shift-by-CL with a possibly-zero count) are
// reported as used so they stay live through the instruction.
func flagEffects(in *x86.Inst) (use, def uint32) {
	switch in.Op {
	case x86.ADD, x86.SUB, x86.CMP, x86.NEG, x86.TEST,
		x86.AND, x86.OR, x86.XOR:
		return 0, x86.FlagsArith
	case x86.ADC, x86.SBB:
		return x86.FlagCF, x86.FlagsArith
	case x86.INC, x86.DEC:
		return 0, x86.FlagsArith &^ x86.FlagCF
	case x86.SHL, x86.SHR, x86.SAR:
		if in.Src.Kind == x86.KImm {
			if in.Src.Imm&31 == 0 {
				return 0, 0
			}
			return 0, x86.FlagsArith
		}
		// Count in CL: a zero count preserves the old flags.
		return x86.FlagsArith, 0
	case x86.ROL, x86.ROR:
		if in.Src.Kind == x86.KImm {
			if in.Src.Imm&31 == 0 {
				return 0, 0
			}
			return 0, x86.FlagCF | x86.FlagOF
		}
		return x86.FlagCF | x86.FlagOF, 0
	case x86.RCL, x86.RCR:
		// Rotate through carry both uses and (conditionally) defines CF.
		return x86.FlagCF | x86.FlagOF, 0
	case x86.SHLD, x86.SHRD:
		// Only an unconditional definition for 32-bit immediate counts;
		// 16-bit forms can reduce to a zero effective count.
		if in.Src2.Kind == x86.KImm && in.Src2.Imm&31 != 0 && in.Dst.Size == 4 {
			return 0, x86.FlagsArith
		}
		return x86.FlagsArith, 0
	case x86.BT:
		return 0, x86.FlagCF
	case x86.BTS, x86.BTR, x86.BTC:
		return 0, x86.FlagCF
	case x86.BSF, x86.BSR:
		return 0, x86.FlagsArith
	case x86.CMPXCHG, x86.XADD:
		return 0, x86.FlagsArith
	case x86.MUL, x86.IMUL, x86.IMUL2:
		return 0, x86.FlagsArith
	case x86.DIV, x86.IDIV:
		return 0, 0
	case x86.JCC, x86.SETCC, x86.CMOVCC:
		return in.Cond.FlagsUsed(), 0
	case x86.CLC, x86.STC:
		return 0, x86.FlagCF
	case x86.CMC:
		return x86.FlagCF, x86.FlagCF
	case x86.CLD, x86.STD:
		return 0, x86.FlagDF
	case x86.SAHF:
		return 0, x86.FlagSF | x86.FlagZF | x86.FlagAF | x86.FlagPF | x86.FlagCF
	case x86.LAHF:
		return x86.FlagSF | x86.FlagZF | x86.FlagAF | x86.FlagPF | x86.FlagCF, 0
	case x86.MOVS, x86.STOS, x86.LODS:
		return x86.FlagDF, 0
	case x86.SCAS, x86.CMPS:
		return x86.FlagDF, x86.FlagsArith
	}
	return 0, 0
}

// lookaheadDepth bounds the cross-block liveness scan.
const lookaheadDepth = 24

// flagsLiveAt computes which arithmetic flags may be observed starting
// at guest address addr, scanning forward up to depth instructions.
// Unresolvable control flow leaves the remaining undetermined flags
// live.
func flagsLiveAt(mem CodeReader, addr uint32, unknown uint32, depth int) uint32 {
	live := uint32(0)
	var in x86.Inst
	for depth > 0 && unknown != 0 {
		if err := x86.DecodeInto(&in, mem.CodeWindow(addr, x86.MaxInstLen+4), addr); err != nil {
			return live | unknown
		}
		use, def := flagEffects(&in)
		live |= use & unknown
		unknown &^= use | def
		if unknown == 0 {
			return live
		}
		depth--
		switch in.Op {
		case x86.JMP:
			addr = in.BranchTarget()
		case x86.JCC:
			// Both paths may execute: a flag is live if live on either.
			taken := flagsLiveAt(mem, in.BranchTarget(), unknown, depth/2)
			fall := flagsLiveAt(mem, in.Next(), unknown, depth/2)
			return live | taken | fall
		case x86.CALL, x86.CALLIND, x86.RET, x86.JMPIND, x86.INT, x86.HLT:
			// Unknown continuation: remaining flags stay live.
			return live | unknown
		default:
			addr = in.Next()
		}
	}
	return live | unknown
}

// flagLiveness annotates each instruction of a block with the flag bits
// live immediately after it (i.e. the bits its lowering must
// materialize if it defines them), in live's storage when it is large
// enough.
func flagLiveness(insts []x86.Inst, mem CodeReader, conservative bool, live []uint32) []uint32 {
	n := len(insts)
	live = slices.Grow(live[:0], n)[:n]

	// Liveness at the block exit.
	exitLive := x86.FlagsArith | x86.FlagDF
	if !conservative {
		last := &insts[n-1]
		switch {
		case !last.EndsBlock():
			// Size-capped block: the successor is the next instruction.
			exitLive = flagsLiveAt(mem, last.Next(), x86.FlagsArith, lookaheadDepth) | x86.FlagDF
		case last.Op == x86.JMP || last.Op == x86.CALL:
			exitLive = flagsLiveAt(mem, last.BranchTarget(), x86.FlagsArith, lookaheadDepth) | x86.FlagDF
		case last.Op == x86.JCC:
			t := flagsLiveAt(mem, last.BranchTarget(), x86.FlagsArith, lookaheadDepth)
			f := flagsLiveAt(mem, last.Next(), x86.FlagsArith, lookaheadDepth)
			exitLive = t | f | x86.FlagDF
		case last.Op == x86.INT:
			exitLive = flagsLiveAt(mem, last.Next(), x86.FlagsArith, lookaheadDepth) | x86.FlagDF
			// RET / indirect jumps stay conservative.
		}
	}

	cur := exitLive
	for i := n - 1; i >= 0; i-- {
		live[i] = cur
		use, def := flagEffects(&insts[i])
		cur = (cur &^ def) | use
	}
	return live
}
