package bench

import (
	"fmt"

	"tilevm/internal/core"
)

// WarmupInsts is the cold-start probe point: virtual cycles from guest
// arrival to the first 10k retired host instructions.
const WarmupInsts = 10_000

// WarmupWorkload is the guest the warmup bench measures.
const WarmupWorkload = "164.gzip"

// WarmupResult compares tier-0 cold start against the optimizing-only
// pipeline. All values are deterministic virtual cycles, not wall
// clock, so the regression gate can hold them to a tight tolerance.
type WarmupResult struct {
	Workload string `json:"workload"`
	Insts    uint64 `json:"insts"`

	// Default configuration (run-ahead speculation on): tier-0 serves
	// the demand misses speculation has not covered yet.
	Tier0Cycles uint64  `json:"tier0_cycles"`
	OptCycles   uint64  `json:"opt_cycles"`
	Speedup     float64 `json:"speedup"` // OptCycles / Tier0Cycles

	// The paper's base configuration (no speculation): every
	// translation is demand work, so tier-0 carries the whole cold
	// path and the latency win is largest.
	Tier0CyclesNoSpec uint64  `json:"tier0_cycles_nospec"`
	OptCyclesNoSpec   uint64  `json:"opt_cycles_nospec"`
	SpeedupNoSpec     float64 `json:"speedup_nospec"`
}

// WarmupBench measures guest arrival → first WarmupInsts retired host
// instructions with the template tier on and off, under both the
// default (speculative) and the paper's base (non-speculative)
// configuration.
func (s *Suite) WarmupBench() (*WarmupResult, error) {
	img := s.image(WarmupWorkload)
	warm := func(tier0, spec bool) (uint64, error) {
		cfg := core.DefaultConfig()
		cfg.Tier0 = tier0
		cfg.Speculative = spec
		cfg.WarmupInsts = WarmupInsts
		cfg.Memo = s.memo
		r, err := core.Run(img, cfg)
		if err != nil {
			return 0, fmt.Errorf("warmup (tier0=%v spec=%v): %w", tier0, spec, err)
		}
		if r.M.WarmupCycles == 0 {
			return 0, fmt.Errorf("warmup (tier0=%v spec=%v): probe never fired", tier0, spec)
		}
		return r.M.WarmupCycles, nil
	}
	out := &WarmupResult{Workload: WarmupWorkload, Insts: WarmupInsts}
	var err error
	if out.Tier0Cycles, err = warm(true, true); err != nil {
		return nil, err
	}
	if out.OptCycles, err = warm(false, true); err != nil {
		return nil, err
	}
	if out.Tier0CyclesNoSpec, err = warm(true, false); err != nil {
		return nil, err
	}
	if out.OptCyclesNoSpec, err = warm(false, false); err != nil {
		return nil, err
	}
	out.Speedup = float64(out.OptCycles) / float64(out.Tier0Cycles)
	out.SpeedupNoSpec = float64(out.OptCyclesNoSpec) / float64(out.Tier0CyclesNoSpec)
	return out, nil
}
