package bench

import (
	"fmt"
	"strings"

	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
)

// FleetFaultSweep measures fleet-level fault tolerance: an
// oversubscribed gzip/mcf fleet on an 8×8 fabric (8 VM slots), with
// fail-stop faults quarantining 0–3 slots mid-run, crossed with two
// recovery policies — abort on first fault (MaxAttempts 1), and retry
// (the default ×3), which re-queues a guest at once and resumes it from
// its latest checkpoint. Every guest carries the same absolute
// deadline, so the table reports SLO attainment alongside goodput
// (useful host instructions per makespan cycle: work from killed
// attempts counts for nothing). These are the numbers behind the
// fleet fault-tolerance table in EXPERIMENTS.md.
func (s *Suite) FleetFaultSweep() (string, error) {
	grid, nGuests := [2]int{8, 8}, 12
	rotation := []string{"164.gzip", "181.mcf"}
	faultCounts := []int{0, 1, 2, 3}
	const deadline = 8_000_000
	if s.Quick {
		grid, nGuests = [2]int{4, 4}, 4
		faultCounts = []int{0, 1}
	}

	// Fault schedule: the k-th point kills one service tile in each of k
	// distinct slots, rotating through the roles whose loss is fatal to a
	// slot (manager, translation slave, exec), at cycles that land inside
	// the gzip/mcf runtimes so every kill strikes a running guest.
	cfg0 := core.DefaultConfig()
	cfg0.Params.Width, cfg0.Params.Height = grid[0], grid[1]
	layout, err := core.FleetSlotLayout(cfg0.Params)
	if err != nil {
		return "", fmt.Errorf("fleet-fault layout %dx%d: %w", grid[0], grid[1], err)
	}
	roles := []struct {
		tile  func(core.FleetSlot) int
		cycle uint64
	}{
		{func(sl core.FleetSlot) int { return sl.Manager }, 500_000},
		{func(sl core.FleetSlot) int { return sl.Slaves[0] }, 700_000},
		{func(sl core.FleetSlot) int { return sl.Exec }, 2_500_000},
	}
	policies := []struct {
		name        string
		maxAttempts int
	}{
		{"abort", 1},
		{"retry", core.DefaultMaxAttempts},
	}

	imgs := make([]*guest.Image, nGuests)
	deadlines := make([]uint64, nGuests)
	for i := range imgs {
		imgs[i] = s.image(rotation[i%len(rotation)])
		deadlines[i] = deadline
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fleet fault tolerance — %d guests on %dx%d, deadline %d cycles/guest\n",
		nGuests, grid[0], grid[1], uint64(deadline))
	fmt.Fprintf(&b, "%6s %-15s %9s %8s %8s %8s %5s %7s %9s %14s\n",
		"faults", "policy", "finished", "retried", "aborted", "dl-miss", "quar", "SLO", "goodput", "makespan")
	for _, k := range faultCounts {
		for _, pol := range policies {
			cfg := core.DefaultConfig()
			cfg.Params.Width, cfg.Params.Height = grid[0], grid[1]
			cfg.Memo = s.memo
			if k > 0 {
				plan := &fault.Plan{}
				for i := 0; i < k; i++ {
					sl := layout[(2*i+1)%len(layout)]
					plan.Fails = append(plan.Fails,
						fault.TileFail{Tile: roles[i%len(roles)].tile(sl), Cycle: roles[i%len(roles)].cycle})
				}
				cfg.Fault = plan
			}
			res, err := core.RunFleet(imgs, cfg, core.FleetConfig{
				MaxAttempts: pol.maxAttempts,
				Deadlines:   deadlines,
			})
			if err != nil {
				return "", fmt.Errorf("fleet-fault %dx%d faults=%d policy=%s: %w",
					grid[0], grid[1], k, pol.name, err)
			}
			f := &res.Fleet
			fmt.Fprintf(&b, "%6d %-15s %9d %8d %8d %8d %5d %6.0f%% %9.3f %14d\n",
				k, pol.name, f.GuestsFinished, f.GuestsRetried, f.GuestsAborted,
				f.GuestsDeadlineExceeded, f.SlotsQuarantined,
				100*f.SLOAttainment(), f.Goodput(res.Makespan), res.Makespan)
		}
	}
	return b.String(), nil
}
