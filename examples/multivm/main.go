// Multivm: the paper's §5 vision — "a large tiled fabric running many
// virtual x86's all at the same time". Two complete virtual machines
// share the 4×4 fabric, 8 tiles each, in isolated halves.
//
// The second part scales the same idea up with the fleet scheduler:
// six guests on an 8×8 fabric capped at four VM slots, admitted as
// slots free up. The third kills a slot's exec tile mid-run and shows
// the quarantine-and-retry policy.
package main

import (
	"fmt"
	"log"

	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

func main() {
	pa, _ := workload.ByName("164.gzip") // small, finishes early
	pb, _ := workload.ByName("176.gcc")  // translation-bound
	imgA, imgB := pa.Build(), pb.Build()

	cfg := core.DefaultConfig()

	fmt.Println("two virtual x86 processors on one 4x4 Raw fabric")
	fmt.Printf("  VM A: %s, VM B: %s\n\n", pa.Name, pb.Name)

	pair, err := core.RunFleet([]*guest.Image{imgA, imgB}, cfg, core.FleetConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ra, rb := pair.Guests[0].Result, pair.Guests[1].Result
	fmt.Printf("isolated halves  A: %9d cycles   B: %9d cycles   makespan: %9d\n",
		ra.Cycles, rb.Cycles, pair.Makespan)
	fmt.Printf("                 B demand misses: %d, B translations: %d\n",
		rb.M.DemandMisses, rb.M.Translations)

	// Fleet mode: the same carve generalized to N guests on an
	// arbitrary fabric. Two slots are deliberately left uncarved
	// (MaxSlots) so two guests queue and are admitted mid-run when a
	// slot's previous guest exits.
	names := []string{"164.gzip", "181.mcf", "176.gcc", "164.gzip", "181.mcf", "164.gzip"}
	imgs := make([]*guest.Image, len(names))
	for i, n := range names {
		p, _ := workload.ByName(n)
		imgs[i] = p.Build()
	}
	fcfg := core.DefaultConfig()
	fcfg.Params.Width, fcfg.Params.Height = 8, 8
	fmt.Printf("\nfleet: %d guests on an 8x8 fabric, capped at 4 VM slots\n", len(names))
	res, err := core.RunFleet(imgs, fcfg, core.FleetConfig{MaxSlots: 4})
	if err != nil {
		log.Fatal(err)
	}
	for gi, g := range res.Guests {
		queued := ""
		if g.Admitted > 0 {
			queued = "  (queued, admitted mid-run)"
		}
		fmt.Printf("  guest %d %-10s %-9s slot %d  admitted %9d  finished %9d%s\n",
			gi, names[gi], g.Status, g.Slot, g.Admitted, g.Finished, queued)
	}
	fmt.Printf("  makespan %d cycles, fabric utilization %.1f%%\n",
		res.Makespan, 100*res.Utilization)
	fmt.Println("\neach guest's final state hash is identical to its solo run —")
	fmt.Println("scheduling and queueing never leak into a guest.")

	// Fleet fault tolerance: a fail-stop fault on a slot's exec tile
	// quarantines the whole slot; its guest re-enters the admission
	// queue after a deterministic backoff and reruns on a survivor.
	// GuestResult reports the outcome explicitly — Status and Attempts —
	// instead of a nil Result the caller must interpret.
	fmt.Println("\nfleet fault tolerance: killing slot 0's exec tile mid-run")
	layout, err := core.FleetSlotLayout(cfg.Params) // default 4x4, two slots
	if err != nil {
		log.Fatal(err)
	}
	fcfg = core.DefaultConfig()
	fcfg.Fault = &fault.Plan{Seed: 1, Fails: []fault.TileFail{
		{Tile: layout[0].Exec, Cycle: 500_000},
	}}
	res, err = core.RunFleet(imgs[:3], fcfg, core.FleetConfig{})
	if err != nil {
		log.Fatal(err)
	}
	for gi, g := range res.Guests {
		fmt.Printf("  guest %d %-10s %-9s attempts %d", gi, names[gi], g.Status, g.Attempts)
		if g.Err != nil {
			fmt.Printf("  (%v)", g.Err)
		}
		fmt.Println()
	}
	fmt.Printf("  %d slot quarantined, %d guest retried, goodput %.3f insts/cycle\n",
		res.Fleet.SlotsQuarantined, res.Fleet.GuestsRetried, res.Fleet.Goodput(res.Makespan))
	fmt.Println("\nthe retried guest converges to the same final state as its solo")
	fmt.Println("run — recovery changes when work happens, never what it computes.")
}
