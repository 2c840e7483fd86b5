package bench

import (
	"testing"

	"tilevm/internal/core"
)

// TestFaultSweepDegradesGracefully: slowdown must grow (weakly
// monotonically) with the number of failed tiles, and losing three
// worker tiles must cost measurably more than losing none — while
// every run still produces the correct architectural result (enforced
// inside Suite.Run).
func TestFaultSweepDegradesGracefully(t *testing.T) {
	s := NewSuite()
	s.Quick = true
	f, err := s.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	mean := make([]float64, len(f.Series))
	for si, ser := range f.Series {
		for bi, bench := range f.Benchmarks {
			v := ser.Values[bi]
			mean[si] += v / float64(len(f.Benchmarks))
			// Per benchmark: allow sub-1% jitter, but the trend must
			// not reverse.
			if si > 0 && v < f.Series[si-1].Values[bi]*0.99 {
				t.Errorf("%s: slowdown decreased with more failures (%s: %.4f after %.4f)",
					bench, ser.Label, v, f.Series[si-1].Values[bi])
			}
		}
	}
	for si := 1; si < len(mean); si++ {
		if mean[si] <= mean[si-1] {
			t.Errorf("mean slowdown not monotone: %.4f after %.4f (%s)",
				mean[si], mean[si-1], f.Series[si].Label)
		}
	}
	first, last := f.Series[0], f.Series[len(f.Series)-1]
	for bi, bench := range f.Benchmarks {
		if last.Values[bi] <= first.Values[bi] {
			t.Errorf("%s: killing 3 bank tiles did not slow the machine (%.4f -> %.4f)",
				bench, first.Values[bi], last.Values[bi])
		}
	}
}

// TestFaultSweepRollbackLossless pins the recovery guarantees: every
// faulted run's final guest state is bit-identical to the fault-free
// run (StateHash equality, checked inside FaultSweep), and the sweep
// actually exercises the rollback path (at least one run rolled back
// rather than excising a dirty bank in place).
func TestFaultSweepRollbackLossless(t *testing.T) {
	s := NewSuite()
	s.Quick = true
	f, err := s.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	var rollbacks uint64
	for _, bench := range f.Benchmarks {
		for _, label := range []string{"1 dead bank", "2 dead banks", "3 dead banks"} {
			// Cache hit on the runs FaultSweep just did; the config
			// argument is unused for cached keys.
			r, err := s.Run(bench, "fault "+label, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rollbacks += r.M.Rollbacks
		}
	}
	if rollbacks == 0 {
		t.Error("no run ever rolled back; the sweep is not exercising the rollback path")
	}
}
