package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tilevm/internal/sim"
	"tilevm/internal/workload"
)

// TestKernelStatsGzip pins what the event kernel does for one
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
//
// Re-pinned a second time, from {2406, 465, 1941, 153}, when the service
// tiles became handler kernels (sim.SpawnHandler): the same 2406 events
// and 153 dead pops, but the 1142 dispatches of the MMU, bank, L1.5,
// syscall and slave tiles now run inline on whichever goroutine popped
// them. 1290 switches went with them — a fill exec → mmu → bank → exec
// used to be three and is none — and 148 more wakeups of the execution
// tile and the manager find themselves next and run on.
//
// Re-pinned a third time, from {2406, 613, 651, 153, 1142}, when the
// manager became a handler kernel too: the same 2406 events and 153 dead
// pops, but the manager's 839 dispatches now run inline, 650 fewer
// switches and 189 fewer run-ons between them. A code fetch through the
// manager was two switches, exec → manager → exec; now the execution
// tile is the only goroutine, and the one switch left is Run's hand-off
// to it.
func TestKernelStatsGzip(t *testing.T) {
	p, _ := workload.ByName("164.gzip")
	img := p.Build()
	want := sim.Stats{Dispatches: 2406, RunOns: 424, Switches: 1, DeadPops: 153, Inline: 1981}
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		cfg.Interrupt = NewInterruptHandle()
		if _, err := Run(img, cfg); err != nil {
			t.Fatal(err)
		}
		if got := cfg.Interrupt.KernelStats(); got != want {
			t.Errorf("run %d: kernel stats %+v, want %+v", i, got, want)
		}
	}
}

// fleetMix is tilebench's fleet_mix guest list: every profile once plus
// five repeats of light ones, in two admission waves on eight slots.
var fleetMix = []string{
	"175.vpr", "176.gcc", "186.crafty", "253.perlbmk", "254.gap", "255.vortex", "300.twolf", "181.mcf",
	"164.gzip", "181.mcf", "197.parser", "256.bzip2", "164.gzip", "197.parser", "256.bzip2", "175.vpr"}

// TestFleetGoroutineBudget: only execution tiles are goroutines. A
// 16-guest fleet on an 8×8 fabric — 64 tile kernels — holds at most
// slots + 4 goroutines above the caller's mid-run (it held one per tile,
// then one per execution tile and manager). Its slots are independent,
// so the kernel dispatches them one at a time: the same 677,139 events
// and 23,327 dead pops as when all eight virtual machines shared one
// heap, and a goroutine switch only where the turn passes from one
// slot's execution tile to another's — 8 of them, Run's hand-off
// included (175,994 while the managers were goroutines; 300,411
// interleaved, before that).
func TestFleetGoroutineBudget(t *testing.T) {
	imgs := fleetImgs(t, fleetMix...)
	cfg := fleetCfg(8, 8)
	cfg.Interrupt = NewInterruptHandle()
	base := runtime.NumGoroutine() + 1 // the sampler below
	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
			}
		}
	}()
	fr, err := RunFleet(imgs, cfg, FleetConfig{})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if budget := int64(base + fr.Slots + 4); peak.Load() == 0 || peak.Load() > budget {
		t.Errorf("fleet of %d slots peaked at %d goroutines (%d before it), budget %d", fr.Slots, peak.Load(), base, budget)
	}
	st := cfg.Interrupt.KernelStats()
	if st.Dispatches != 677_139 || st.DeadPops != 23_327 || st.Dispatches != st.RunOns+st.Switches+st.Inline || st.Switches != 8 {
		t.Errorf("fleet_mix kernel stats %+v: want 677139 dispatches, 23327 dead pops, 8 switches", st)
	}
}

// TestSpecDataSwitchShare: over one pass of tilebench's spec_data and
// spec_code guests, each run alone, the kernel dispatches exactly what
// it did while tiles were goroutines — 78,209 and 435,125 events, 999
// and 6,568 dead pops — and every run switches goroutines once, at Run's
// hand-off to its execution tile, the one goroutine. 75,643 of the
// spec_data events were switches when the service tiles were goroutines
// and 3,206 while the manager still was; spec_code's were 105,463, its
// code fetches through the manager.
func TestSpecDataSwitchShare(t *testing.T) {
	for _, pass := range []struct {
		name                 string
		guests               []string
		dispatches, deadPops uint64
	}{
		{"spec_data", []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2"}, 78_209, 999},
		{"spec_code", []string{"175.vpr", "176.gcc", "186.crafty", "253.perlbmk", "254.gap", "255.vortex", "300.twolf"}, 435_125, 6_568},
	} {
		var got sim.Stats
		for _, img := range fleetImgs(t, pass.guests...) {
			cfg := DefaultConfig()
			cfg.Interrupt = NewInterruptHandle()
			if _, err := Run(img, cfg); err != nil {
				t.Fatal(err)
			}
			st := cfg.Interrupt.KernelStats()
			if st.Switches > 1 {
				t.Errorf("%s: a run made %d switches, want at most one", pass.name, st.Switches)
			}
			got.Dispatches += st.Dispatches
			got.DeadPops += st.DeadPops
		}
		if got.Dispatches != pass.dispatches || got.DeadPops != pass.deadPops {
			t.Errorf("%s pass: %d dispatches, %d dead pops: want %d and %d",
				pass.name, got.Dispatches, got.DeadPops, pass.dispatches, pass.deadPops)
		}
	}
}

// TestSimWorkersInert: Config.SimWorkers selects nothing. The frozen
// benchmark's shard probe assigns it, so the same 4-guest 8×8 fleet at
// 0, 1 and 8 must give the same FleetResult and the same non-zero kernel
// counters: the probe can never diverge from the run it is compared
// with.
func TestSimWorkersInert(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip", "181.mcf")
	var want *FleetResult
	var wantStats sim.Stats
	for _, workers := range []int{0, 1, 8} {
		cfg := fleetCfg(8, 8)
		cfg.SimWorkers = workers
		cfg.Interrupt = NewInterruptHandle()
		got, err := RunFleet(imgs, cfg, FleetConfig{})
		if err != nil {
			t.Fatalf("SimWorkers=%d: %v", workers, err)
		}
		st := cfg.Interrupt.KernelStats()
		if st.Dispatches == 0 || st.Switches == 0 {
			t.Fatalf("SimWorkers=%d: kernel counters %+v: want a counted run", workers, st)
		}
		if want == nil {
			want, wantStats = got, st
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SimWorkers=%d: fleet result differs from SimWorkers=0\n got %+v\nwant %+v", workers, got, want)
		}
		if st != wantStats {
			t.Errorf("SimWorkers=%d: kernel counters %+v, at SimWorkers=0 %+v", workers, st, wantStats)
		}
	}
}
