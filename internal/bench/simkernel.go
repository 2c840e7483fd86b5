package bench

import (
	"testing"

	"tilevm/internal/sim"
)

// ProcSwitchBench returns a benchmark of the serial kernel's direct
// hand-off: procs processes advancing in lockstep, so every park finds
// another process's wakeup ahead of its own and costs one goroutine
// switch — the complement of the lone-ticker dispatch benchmark, whose
// parks all run on. One op is one park; switches/op (from sim.Stats)
// reads 1 when the benchmark measures what it says. With 2 processes
// the event heap is trivial; with 64 it has the depth of an 8×8
// fabric's.
func ProcSwitchBench(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New()
		parks := b.N/procs + 1
		for i := 0; i < procs; i++ {
			s.Spawn("lockstep", func(p *sim.Proc) {
				for j := 0; j < parks; j++ {
					p.Advance(1)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Stats().Switches)/float64(parks*procs), "switches/op")
	}
}
