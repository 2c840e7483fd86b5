package core

import (
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
	"tilevm/internal/x86interp"
)

// pairCfg is the shared-fabric configuration for multi-VM tests.
func pairCfg() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	return cfg
}

// checkGuest verifies one guest's results against its reference run.
func checkGuest(t *testing.T, label string, res *Result, img *guest.Image) {
	t.Helper()
	ref := guest.Load(img)
	if exited, err := x86interp.New(ref).Run(50_000_000); err != nil || !exited {
		t.Fatalf("%s reference: %v exited=%v", label, err, exited)
	}
	if res.ExitCode != ref.Kern.ExitCode {
		t.Errorf("%s exit code %d, want %d", label, res.ExitCode, ref.Kern.ExitCode)
	}
	if res.Stdout != ref.Kern.Stdout.String() {
		t.Errorf("%s stdout mismatch", label)
	}
}

func TestMultiVMBothGuestsCorrect(t *testing.T) {
	pa, _ := workload.ByName("164.gzip")
	pb, _ := workload.ByName("181.mcf")
	imgs := []*guest.Image{pa.Build(), pb.Build()}
	res, err := RunFleet(imgs, pairCfg(), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Guests {
		if g.Result == nil {
			t.Fatalf("guest %d never ran", gi)
		}
		checkGuest(t, "AB"[gi:gi+1], g.Result, imgs[gi])
		if res.Makespan < g.Result.Cycles {
			t.Errorf("makespan %d below guest %d's %d cycles", res.Makespan, gi, g.Result.Cycles)
		}
	}
}

func TestMultiVMDisjointPlacement(t *testing.T) {
	slots, err := planFabric(DefaultConfig().Params, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := slots[0], slots[1]
	seen := map[int]bool{}
	add := func(ts ...int) {
		for _, tile := range ts {
			if seen[tile] {
				t.Fatalf("tile %d assigned twice", tile)
			}
			seen[tile] = true
		}
	}
	for _, pl := range []placement{a, b} {
		add(pl.sys, pl.exec, pl.manager, pl.mmu)
		add(pl.l15...)
		add(pl.slaves...)
		add(pl.banks...)
	}
	if len(seen) != 16 {
		t.Errorf("placements cover %d tiles, want 16", len(seen))
	}
}
