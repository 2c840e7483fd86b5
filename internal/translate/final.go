package translate

import (
	"errors"

	"tilevm/internal/codegen"
	"tilevm/internal/ir"
	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
)

// Translation tiers. TierTemplate is the IR-less tier-0 template path
// (tier0.go); TierOptimizing is the full decode → IR → optimize →
// lower pipeline.
const (
	TierTemplate   uint8 = 0
	TierOptimizing uint8 = 1
)

// Result is a fully translated, executable block: finalized host code
// plus the control-flow metadata.
type Result struct {
	*Block
	// Code is the register-allocated, label-resolved host code.
	Code []rawisa.Inst
	// CodeBytes is the encoded size, the unit of code-cache accounting.
	CodeBytes int
	// Pre is Code predecoded for the execution engine, position-
	// independent, and Chains lists its CHAIN sites: an L1 fill copies
	// the one and walks the other.
	Pre    rawexec.Program
	Chains []ChainSite
	// Optimized records whether the optimizer ran.
	Optimized bool
	// Tier records which translation tier produced the block
	// (TierTemplate or TierOptimizing); the manager's promotion logic
	// and the code caches key off it.
	Tier uint8
}

// ChainSite is one CHAIN instruction of a block: its offset from the
// block's first instruction and the guest PC it exits to.
type ChainSite struct {
	Off    int32
	Target uint32
}

// newResult finishes a translation: the per-block work every later
// cache fill would otherwise redo (sizing, predecoding, finding the
// chain sites) happens here, once. code is the caller's to give away.
//
// The caches hold a Result for as long as the block is resident
// anywhere, and the translator's scratch is overwritten by its next
// call, so a Result owns everything it points at: the Result, its Block
// and the IR block's header are one allocation, and the IR itself
// (blk's Code and LabelPos, which are scratch) is not carried over —
// only the metadata is read again.
func newResult(blk Block, code []rawisa.Inst, optimized bool, tier uint8) *Result {
	h := &struct {
		res Result
		blk Block
		ir  ir.Block
	}{
		blk: Block{Kind: blk.Kind, Target: blk.Target, FallTarget: blk.FallTarget, BackwardTaken: blk.BackwardTaken},
		ir:  ir.Block{GuestAddr: blk.GuestAddr, GuestLen: blk.GuestLen, NumGuest: blk.NumGuest, NumVRegs: blk.NumVRegs},
	}
	h.blk.Block = &h.ir
	r := &h.res
	*r = Result{
		Block:     &h.blk,
		Code:      code,
		CodeBytes: rawisa.CodeBytes(code),
		Optimized: optimized,
		Tier:      tier,
	}
	r.Pre.Sync(code)
	chains := 0
	for _, in := range code {
		if in.Op == rawisa.CHAIN {
			chains++
		}
	}
	if chains > 0 {
		r.Chains = make([]ChainSite, 0, chains)
		for i, in := range code {
			if in.Op == rawisa.CHAIN {
				r.Chains = append(r.Chains, ChainSite{Off: int32(i), Target: in.Target})
			}
		}
	}
	return r
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
		return newResult(blk, code, t.Opts.Optimize, TierOptimizing), nil
	}
	return nil, &Error{Addr: addr, Reason: "register pressure irreducible at single-instruction block"}
}
