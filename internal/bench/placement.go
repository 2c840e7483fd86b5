package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// placementGuests is the oversubscribed admission count the placement
// sweep uses: 12 guests of the gzip/mcf mix (the same mix fleet_kernel
// oversubscribes) against slot-capped fabrics, so every configuration
// runs multiple admission waves.
const placementGuests = 12

// placementRotation deliberately pairs a short translation-bound guest
// with a long memory-bound one: the fixed 4×2 carve leaves the capped
// fabric's spare tiles idle, while the planner grows every slot and the
// memory-bound guests convert the extra bank tiles into shorter chains.
var placementRotation = []string{"164.gzip", "181.mcf"}

// PlacementPoint is one scheduling configuration's outcome on one
// grid. All figures are virtual — deterministic on any host.
type PlacementPoint struct {
	Mode           string  `json:"mode"`
	Slots          int     `json:"slots"`
	Makespan       uint64  `json:"makespan_cycles"`
	MeanTurnaround uint64  `json:"mean_turnaround_cycles"`
	Utilization    float64 `json:"utilization"`
}

// PlacementGridResult compares fixed-shape scheduling against the
// cost-model planner on one fabric.
type PlacementGridResult struct {
	Grid   string `json:"grid"`
	Guests int    `json:"guests"`
	// MaxSlots caps the carve below the fabric's capacity (an admission
	// policy cap, as tilevmd applies per batch) so the planner has idle
	// fabric to grow slots into while the fleet stays oversubscribed.
	MaxSlots int            `json:"max_slots,omitempty"`
	Fixed    PlacementPoint `json:"fixed"`
	Planner  PlacementPoint `json:"planner"`
	// PlannerWins is the headline gate: the planner strictly beats
	// fixed-shape scheduling on makespan or utilization.
	PlannerWins bool `json:"planner_wins"`
}

// PlacementSweepResult is the placement_sweep entry simbench records
// and benchcheck gates on.
type PlacementSweepResult struct {
	Grids []PlacementGridResult `json:"grids"`
	// Identical is the determinism gate: every configuration repeated
	// byte-identically.
	Identical bool    `json:"identical"`
	Seconds   float64 `json:"seconds"`
}

// Table renders the sweep as the text section FleetSweep appends.
func (r *PlacementSweepResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement — oversubscribed slot-capped fleets, fixed carver vs cost-model planner\n")
	fmt.Fprintf(&b, "%-8s %7s %5s %-8s %14s %16s %12s\n",
		"grid", "guests", "cap", "mode", "makespan", "mean turnaround", "utilization")
	for _, g := range r.Grids {
		for _, p := range []PlacementPoint{g.Fixed, g.Planner} {
			fmt.Fprintf(&b, "%-8s %7d %5d %-8s %14d %16d %11.2f%%\n",
				g.Grid, g.Guests, g.MaxSlots, p.Mode, p.Makespan, p.MeanTurnaround,
				100*p.Utilization)
		}
		fmt.Fprintf(&b, "%-8s planner wins: %v\n", g.Grid, g.PlannerWins)
	}
	return b.String()
}

// placementImgs builds the oversubscribed guest mix plus the planner
// profiles matching it.
func placementImgs() ([]*guest.Image, []core.GuestProfile, error) {
	imgs := make([]*guest.Image, placementGuests)
	profiles := make([]core.GuestProfile, placementGuests)
	for i := range imgs {
		name := placementRotation[i%len(placementRotation)]
		p, ok := workload.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("placement sweep: workload %s missing", name)
		}
		imgs[i] = p.Build()
		profiles[i] = core.ProfileFromWorkload(p)
	}
	return imgs, profiles, nil
}

// PlacementSweepBench measures cost-model placement against the fixed
// 4×2 carver on oversubscribed fleets: an 8×8 fabric capped at 4 VM
// slots and a 16×16 fabric capped at 8, both admitting 12 guests. The
// fixed carver covers half of each capped fabric with 4×2 slots; the
// planner's budget search grows every slot to 4×4, and the extra bank
// tiles cut the memory-bound guests' runtimes — strictly better
// makespan on both grids. Every configuration is run twice and
// compared whole for determinism. quick restricts the sweep to the
// 8×8 grid — that is the placement-smoke configuration.
func PlacementSweepBench(quick bool) (*PlacementSweepResult, error) {
	imgs, profiles, err := placementImgs()
	if err != nil {
		return nil, err
	}
	grids := []struct {
		w, h, maxSlots int
	}{
		{8, 8, 4},
		{16, 16, 8},
	}
	if quick {
		grids = grids[:1]
	}

	start := time.Now()
	out := &PlacementSweepResult{Identical: true}
	for _, g := range grids {
		run := func(fc core.FleetConfig) (*core.FleetResult, error) {
			cfg := core.DefaultConfig()
			cfg.Params.Width, cfg.Params.Height = g.w, g.h
			fc.MaxSlots = g.maxSlots
			res, err := core.RunFleet(imgs, cfg, fc)
			if err != nil {
				return nil, fmt.Errorf("placement sweep: %dx%d %+v: %w", g.w, g.h, fc, err)
			}
			return res, nil
		}
		point := func(mode string, fc core.FleetConfig) (PlacementPoint, error) {
			res, err := run(fc)
			if err != nil {
				return PlacementPoint{}, err
			}
			again, err := run(fc)
			if err != nil {
				return PlacementPoint{}, err
			}
			if !reflect.DeepEqual(res, again) {
				out.Identical = false
			}
			var turnaround uint64
			for _, gr := range res.Guests {
				turnaround += gr.Finished - gr.Admitted
			}
			return PlacementPoint{
				Mode:           mode,
				Slots:          res.Slots,
				Makespan:       res.Makespan,
				MeanTurnaround: turnaround / uint64(len(res.Guests)),
				Utilization:    res.Utilization,
			}, nil
		}

		gr := PlacementGridResult{
			Grid:     fmt.Sprintf("%dx%d", g.w, g.h),
			Guests:   placementGuests,
			MaxSlots: g.maxSlots,
		}
		if gr.Fixed, err = point("fixed", core.FleetConfig{}); err != nil {
			return nil, err
		}
		if gr.Planner, err = point("planner", core.FleetConfig{Profiles: profiles}); err != nil {
			return nil, err
		}
		gr.PlannerWins = gr.Planner.Makespan < gr.Fixed.Makespan || gr.Planner.Utilization > gr.Fixed.Utilization
		out.Grids = append(out.Grids, gr)
	}
	out.Seconds = time.Since(start).Seconds()
	return out, nil
}
