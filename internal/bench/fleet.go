package bench

import (
	"fmt"
	"strings"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// fleetRotation is the workload mix FleetSweep admits, repeated as
// needed to reach the requested guest count.
var fleetRotation = []string{"164.gzip", "181.mcf", "176.gcc", "164.gzip"}

// FleetSweep measures the N-guest fleet scheduler: guest counts from
// pair-sized to oversubscribed, on the default 4×4 fabric (2 VM slots),
// an 8×8 fabric (8 slots), and a 16×16 fabric (32 slots), each with
// fixed-shape carving and cost-model planner placement. For each point
// it reports the carved slot count, the makespan, mean guest
// turnaround (finish − admission, averaged), and fabric utilization —
// the numbers behind the fleet-utilization table in EXPERIMENTS.md.
// The full sweep appends the oversubscribed slot-capped placement
// comparison (the placement_sweep entry in BENCH_sim.json), where the
// planner must strictly beat the fixed carver.
func (s *Suite) FleetSweep() (string, error) {
	rotation := fleetRotation
	counts := []int{2, 4, 8}
	grids := [][2]int{{4, 4}, {8, 8}, {16, 16}}
	if s.Quick {
		rotation = []string{"164.gzip", "181.mcf"}
		counts = []int{2, 4}
		grids = grids[:2]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fleet — N virtual x86 processors sharing one fabric (§5 at scale)\n")
	fmt.Fprintf(&b, "%-8s %7s %6s %-8s %14s %16s %12s\n",
		"grid", "guests", "slots", "mode", "makespan", "mean turnaround", "utilization")
	for _, g := range grids {
		for _, n := range counts {
			imgs := make([]*guest.Image, n)
			profiles := make([]core.GuestProfile, n)
			for i := range imgs {
				name := rotation[i%len(rotation)]
				imgs[i] = s.image(name)
				p, ok := workload.ByName(name)
				if !ok {
					return "", fmt.Errorf("fleet sweep: workload %s missing", name)
				}
				profiles[i] = core.ProfileFromWorkload(p)
			}
			for _, mode := range []string{"fixed", "planner"} {
				fc := core.FleetConfig{}
				if mode == "planner" {
					fc.Profiles = profiles
				}
				cfg := core.DefaultConfig()
				cfg.Params.Width, cfg.Params.Height = g[0], g[1]
				cfg.Memo = s.memo
				res, err := core.RunFleet(imgs, cfg, fc)
				if err != nil {
					return "", fmt.Errorf("fleet %dx%d n=%d %s: %w", g[0], g[1], n, mode, err)
				}
				var turnaround uint64
				for _, gr := range res.Guests {
					turnaround += gr.Finished - gr.Admitted
				}
				fmt.Fprintf(&b, "%-8s %7d %6d %-8s %14d %16d %11.1f%%\n",
					fmt.Sprintf("%dx%d", g[0], g[1]), n, res.Slots, mode,
					res.Makespan, turnaround/uint64(n), 100*res.Utilization)
			}
		}
	}
	if !s.Quick {
		ps, err := PlacementSweepBench(false)
		if err != nil {
			return "", err
		}
		b.WriteString("\n")
		b.WriteString(ps.Table())
	}
	return b.String(), nil
}
