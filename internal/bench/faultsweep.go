package bench

import (
	"fmt"

	"tilevm/internal/core"
	"tilevm/internal/fault"
)

// FaultSweep measures graceful degradation under fail-stop tile faults
// (beyond the paper): each configuration kills a growing prefix of
// worker tiles mid-run and the machine recovers — excision morphs
// around a dead tile in place, and a dead bank holding dirty lines
// rolls the guest back to its last whole-machine checkpoint and
// re-executes on the surviving topology. Values are cycles relative to
// the fault-free run of the same benchmark, so 1.0 means unharmed and
// larger means the recovered machine ran slower. Suite.Run's
// cross-check against the Pentium III baseline doubles as the
// correctness witness; the sweep additionally verifies every recovered
// run is lossless: final guest state bit-identical to the fault-free
// run (StateHash).
func (s *Suite) FaultSweep() (*Figure, error) {
	// The schedule kills L2 data banks: each death monotonically shrinks
	// cache capacity and adds recovery cost, so slowdown grows with the
	// failed-tile count. (Killing a translation slave instead can
	// *speed up* the congestion-bound benchmarks — fewer speculative
	// translators relieve the manager, the Figure 5 effect — which is
	// interesting but not a degradation curve.)
	kills := []struct {
		label string
		fail  fault.TileFail
	}{
		{"1 dead bank", fault.TileFail{Tile: 7, Cycle: 150_000}},
		{"2 dead banks", fault.TileFail{Tile: 14, Cycle: 300_000}},
		{"3 dead banks", fault.TileFail{Tile: 2, Cycle: 450_000}},
	}
	type row struct {
		label string
		id    string // Run cache key; "default" shares the fault-free runs
		cfg   core.Config
	}
	rows := []row{{"no faults", "default", with()}}
	for k := 1; k <= len(kills); k++ {
		plan := &fault.Plan{}
		for _, kill := range kills[:k] {
			plan.Fails = append(plan.Fails, kill.fail)
		}
		label := kills[k-1].label
		rows = append(rows, row{label, "fault " + label,
			with(func(c *core.Config) { c.Fault = plan })})
	}

	benches := s.Benchmarks()
	jobs := make([]RunJob, 0, len(benches)*len(rows))
	for _, bench := range benches {
		for ci := range rows {
			jobs = append(jobs, RunJob{Bench: bench, CfgID: rows[ci].id, Cfg: rows[ci].cfg})
		}
	}
	if err := s.RunParallel(jobs); err != nil {
		return nil, err
	}
	series := make([]Series, len(rows))
	for ci := range rows {
		series[ci] = Series{Label: rows[ci].label, Values: make([]float64, len(benches))}
	}
	for bi, bench := range benches {
		var ref *core.Result
		for ci := range rows {
			r, err := s.Run(bench, rows[ci].id, rows[ci].cfg)
			if err != nil {
				return nil, err
			}
			if ci == 0 {
				ref = r
			} else if r.StateHash != ref.StateHash {
				return nil, fmt.Errorf(
					"recovery not lossless: %s %q final state %#x != fault-free %#x",
					bench, rows[ci].label, r.StateHash, ref.StateHash)
			}
			series[ci].Values[bi] = float64(r.Cycles) / float64(ref.Cycles)
		}
	}
	return &Figure{
		Name:       "FaultSweep",
		Title:      "Graceful degradation under fail-stop tile faults (beyond the paper)",
		Metric:     "cycles relative to the fault-free run (higher is worse)",
		Benchmarks: benches,
		Series:     series,
		Notes: "kill schedule: bank tile 7 @150k cycles, then bank 14 @300k, then bank 2 @450k " +
			"(one of the four banks survives); every faulted run is still checked for the " +
			"architecturally correct result and verified bit-identical to the fault-free final state",
	}, nil
}
