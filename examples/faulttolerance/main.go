// Faulttolerance: morphing around failed tiles (beyond the paper).
// Runs a workload four ways: fault-free; with a bank and a slave tile
// fail-stopping mid-run while the manager excises them and continues
// at reduced width; with every service tile stalling in turn for
// longer than the watchdog, which the re-send protocol absorbs; and
// with recovery disabled, where the
// same bank death deadlocks — terminated by the simulator with a
// per-tile diagnostic instead of hanging. Every surviving run is
// checked against the fault-free architectural result.
package main

import (
	"errors"
	"fmt"
	"log"

	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/sim"
	"tilevm/internal/workload"
)

func main() {
	p, ok := workload.ByName("181.mcf")
	if !ok {
		log.Fatal("unknown workload 181.mcf")
	}
	img := p.Build()

	clean, err := core.Run(img, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free        %9d cycles  exit %d\n", clean.Cycles, clean.ExitCode)

	// A translation slave dies, then an L2 data bank. The manager
	// notices the missed heartbeats, re-queues the slave's in-flight
	// translation, and re-interleaves the surviving banks.
	cfg := core.DefaultConfig()
	cfg.Fault = &fault.Plan{Fails: []fault.TileFail{
		{Tile: 8, Cycle: 100_000},
		{Tile: 7, Cycle: 220_000},
	}}
	res, err := core.Run(img, cfg)
	if err != nil {
		log.Fatal(err)
	}
	check(clean, res)
	fmt.Printf("slave+bank killed %9d cycles  (+%.0f%%)  remaps %d  retries %d  recovery %d cycles\n",
		res.Cycles, 100*(float64(res.Cycles)/float64(clean.Cycles)-1),
		res.M.RoleRemaps, res.M.Retries, res.M.RecoveryCycles)

	// Stalled tiles: every 10,000 cycles one service tile (syscall
	// proxy, L1.5 banks, manager, MMU, data banks, slaves, in turn)
	// stalls for 25,000 cycles, longer than the 20,000-cycle watchdog.
	// Timeouts and re-sends make each stall cost time instead of
	// correctness.
	cfg = core.DefaultConfig()
	cfg.Fault = &fault.Plan{}
	for i, tiles := 0, []int{0, 1, 9, 4, 6, 10, 7, 3, 8}; i < 200; i++ {
		cfg.Fault.Stalls = append(cfg.Fault.Stalls,
			fault.TileStall{Tile: tiles[i%len(tiles)], Cycle: uint64(i+1) * 10_000, Dur: 25_000})
	}
	res, err = core.Run(img, cfg)
	if err != nil {
		log.Fatal(err)
	}
	check(clean, res)
	fmt.Printf("stalled tiles     %9d cycles  (+%.0f%%)  stalls %d  timeouts %d  retries %d\n",
		res.Cycles, 100*(float64(res.Cycles)/float64(clean.Cycles)-1),
		res.M.TileStalls, res.M.Timeouts, res.M.Retries)

	// The same bank death with recovery disabled: the machine wedges,
	// and the simulator diagnoses the deadlock instead of hanging.
	cfg = core.DefaultConfig()
	cfg.Speculative = false
	cfg.FaultRecovery = false
	cfg.Fault = &fault.Plan{Fails: []fault.TileFail{{Tile: 7, Cycle: 150_000}}}
	_, err = core.Run(img, cfg)
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		log.Fatalf("expected a deadlock without recovery, got %v", err)
	}
	fmt.Printf("recovery disabled: deadlock at cycle %d, %d tiles blocked (first: %s on %s)\n",
		dl.Now, len(dl.Blocked), dl.Blocked[0].Proc, dl.Blocked[0].Port)
	fmt.Println("\nthe same homogeneity that lets tiles swap roles lets the machine morph around dead ones.")
}

// check verifies a faulted run against the fault-free architectural
// result.
func check(want, got *core.Result) {
	if got.ExitCode != want.ExitCode || got.Stdout != want.Stdout {
		log.Fatalf("faulted run diverged: exit %d vs %d", got.ExitCode, want.ExitCode)
	}
}
