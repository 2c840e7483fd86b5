package core

import (
	"testing"

	"tilevm/internal/sim"
	"tilevm/internal/workload"
)

// TestKernelStatsGzip pins what the serial event kernel does for one
// 164.gzip run under DefaultConfig: how many events it dispatches, how
// many of those the parking tile kernel finds to be its own next wakeup
// (run-ons, no goroutine switch) and how many move to another tile's
// goroutine. The counts are a function of the machine model alone, so
// two runs agree exactly, and a change to either the kernel's hand-off
// or the tiles' message pattern shows up here as a count, not as a
// timing. The handle is only the test's way to reach the simulator.
//
// Re-pinned once, from {4316, 1478, 2838, 151}, when Recv stopped
// spending a dispatch on its accrued local time (sim.Proc.fold): the
// 1910 dispatches that went were the service tiles' and the execution
// tile's pre-Recv self-wakeups — 1013 of them run-ons, 897 switches —
// and the two extra dead pops are waits that a Recv entered with a
// later message already queued scheduled for that message, and that an
// earlier-arriving Send superseded before the local time was up; the
// old self-wakeup found both messages queued and scheduled once. Every
// virtual cycle count of the run is the same.
func TestKernelStatsGzip(t *testing.T) {
	p, _ := workload.ByName("164.gzip")
	img := p.Build()
	want := sim.Stats{Dispatches: 2406, RunOns: 465, Switches: 1941, DeadPops: 153}
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		cfg.Interrupt = NewInterruptHandle()
		if _, err := Run(img, cfg); err != nil {
			t.Fatal(err)
		}
		if got := cfg.Interrupt.sim.Stats(); got != want {
			t.Errorf("run %d: kernel stats %+v, want %+v", i, got, want)
		}
	}
}
