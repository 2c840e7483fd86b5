// Faulttolerance: morphing around failed tiles (beyond the paper).
// Runs a workload four ways: fault-free; with a bank and a slave tile
// fail-stopping mid-run while the manager excises them and continues
// at reduced width; with every service tile stalling in turn, which
// costs the guest time and nothing else; and
// with two data banks dying while they hold dirty lines, which the
// machine survives by rolling the guest back to its last checkpoint
// and re-executing without them. Every run is checked against the
// fault-free architectural result.
package main

import (
	"fmt"
	"log"

	"tilevm/internal/core"
	"tilevm/internal/fault"
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
	fmt.Printf("slave+bank killed %9d cycles  (+%.0f%%)  remaps %d  recovery %d cycles\n",
		res.Cycles, 100*(float64(res.Cycles)/float64(clean.Cycles)-1),
		res.M.RoleRemaps, res.M.RecoveryCycles)

	// Stalled tiles: every 10,000 cycles one service tile (syscall
	// proxy, L1.5 banks, manager, MMU, data banks, slaves, in turn)
	// stalls for 25,000 cycles. A stalled tile loses no message: it
	// answers what it holds once the stall ends, so the execution tile
	// just waits, and each stall costs time instead of correctness: what
	// is left of its window when its tile is next asked. A
	// stall-only plan arms no recovery protocol: nothing is taken for
	// dead.
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
	fmt.Printf("stalled tiles     %9d cycles  (+%.0f%%)  stalls %d\n",
		res.Cycles, 100*(float64(res.Cycles)/float64(clean.Cycles)-1),
		res.M.TileStalls)

	// Bank 7, then bank 14, dies holding dirty lines. Cutting a dirty
	// bank out in place would lose its writebacks, so each death
	// cancels the guest's admission and re-admits it from its last
	// checkpoint on the surviving banks: the final guest state is
	// bit-identical to the fault-free run's.
	cfg = core.DefaultConfig()
	cfg.Fault = &fault.Plan{Fails: []fault.TileFail{
		{Tile: 7, Cycle: 150_000},
		{Tile: 14, Cycle: 300_000},
	}}
	res, err = core.Run(img, cfg)
	if err != nil {
		log.Fatal(err)
	}
	check(clean, res)
	if res.StateHash != clean.StateHash {
		log.Fatalf("dirty banks killed: final state %#x, fault-free %#x", res.StateHash, clean.StateHash)
	}
	fmt.Printf("dirty banks killed %8d cycles  (+%.0f%%)  rollbacks %d  re-executed %d cycles  state as fault-free\n",
		res.Cycles, 100*(float64(res.Cycles)/float64(clean.Cycles)-1),
		res.M.Rollbacks, res.M.ReexecCycles)
	fmt.Println("\nthe same homogeneity that lets tiles swap roles lets the machine morph around dead ones.")
}

// check verifies a faulted run against the fault-free architectural
// result.
func check(want, got *core.Result) {
	if got.ExitCode != want.ExitCode || got.Stdout != want.Stdout {
		log.Fatalf("faulted run diverged: exit %d vs %d", got.ExitCode, want.ExitCode)
	}
}
