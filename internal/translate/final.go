package translate

import (
	"errors"

	"tilevm/internal/codegen"
	"tilevm/internal/rawisa"
)

// Result is a fully translated, executable block: its host code and
// the control-flow metadata of the block it came from, in one flat
// header. Code is in the form the execution engine runs
// (rawexec.Program), the same at every level of the code caches: an L1
// fill copies it and walks it for its CHAIN sites.
type Result struct {
	// Code is the register-allocated, label-resolved host code.
	Code []rawisa.Inst
	// GuestAddr is the guest address of the block's first instruction,
	// GuestLen the guest code bytes it covers.
	GuestAddr, GuestLen uint32
	// Target and FallTarget are the block's successors, as in Block.
	Target, FallTarget uint32
	// CodeBytes is the encoded size, the unit of code-cache accounting.
	CodeBytes int
	// NumGuest is the number of guest instructions translated.
	NumGuest int
	// Kind is how the block ends; BackwardTaken is its static branch
	// prediction (see Block).
	Kind          ExitKind
	BackwardTaken bool
}

// newResult finishes a translation. The caches hold a Result for as
// long as the block is resident anywhere, and the translator's scratch
// is overwritten by its next call, so a Result owns everything it
// points at: code (the caller's to give away) and a copy of the block's
// metadata. Nothing of the IR is carried over.
func newResult(blk Block, code []rawisa.Inst) *Result {
	return &Result{
		Code:          code,
		GuestAddr:     blk.GuestAddr,
		GuestLen:      blk.GuestLen,
		Target:        blk.Target,
		FallTarget:    blk.FallTarget,
		CodeBytes:     rawisa.CodeBytes(code),
		NumGuest:      blk.NumGuest,
		Kind:          blk.Kind,
		BackwardTaken: blk.BackwardTaken,
	}
}

// TranslateFinal runs the full pipeline: block discovery, flag
// liveness, lowering, optimization (if enabled), and register
// allocation. If the block exceeds the host temporary register budget
// it is retried at smaller sizes, as a real translator splits
// oversized superblocks.
func (t *Translator) TranslateFinal(mem CodeReader, addr uint32) (*Result, error) {
	for _, cap := range []int{MaxBlockInsts, 8, 2, 1} {
		blk, err := t.translate(mem, addr, cap)
		if err != nil {
			return nil, err
		}
		if t.Opts.Optimize {
			t.opt.Run(blk.Block)
		}
		code, err := t.cg.Finalize(blk.Block)
		if errors.Is(err, codegen.ErrRegPressure) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return newResult(blk, code), nil
	}
	return nil, &Error{Addr: addr, Reason: "register pressure irreducible at single-instruction block"}
}
