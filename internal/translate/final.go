package translate

import (
	"errors"

	"tilevm/internal/codegen"
	"tilevm/internal/opt"
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
// chain sites) happens here, once.
func newResult(blk *Block, code []rawisa.Inst, optimized bool, tier uint8) *Result {
	r := &Result{
		Block:     blk,
		Code:      code,
		CodeBytes: rawisa.CodeBytes(code),
		Optimized: optimized,
		Tier:      tier,
	}
	// The IR is spent: the caches hold a Result for as long as the block
	// is resident anywhere, and only its metadata is read again. Letting
	// go of it (24 bytes per instruction) more than pays for Pre (8).
	blk.Block.Code, blk.Block.LabelPos = nil, nil
	r.Pre.Sync(code)
	for i, in := range code {
		if in.Op == rawisa.CHAIN {
			if r.Chains == nil {
				r.Chains = make([]ChainSite, 0, 2) // a taken and a fall-through exit
			}
			r.Chains = append(r.Chains, ChainSite{Off: int32(i), Target: in.Target})
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
			opt.Run(blk.Block)
		}
		code, err := codegen.Finalize(blk.Block)
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
