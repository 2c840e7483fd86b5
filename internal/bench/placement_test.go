package bench

import "testing"

// TestPlacementSmoke is the `make placement-smoke` CI gate: the quick
// (8×8-only) placement sweep must run deterministically and the
// cost-model planner must beat the fixed carver — strictly here, since
// the capped 8×8 configuration wins on makespan and utilization, and
// both figures are virtual cycles that cannot wobble with host load.
func TestPlacementSmoke(t *testing.T) {
	r, err := PlacementSweepBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("placement sweep runs diverged — planner placement broke determinism")
	}
	if len(r.Grids) != 1 || r.Grids[0].Grid != "8x8" {
		t.Fatalf("quick sweep covered %+v, want the single 8x8 grid", r.Grids)
	}
	g := r.Grids[0]
	if !g.PlannerWins {
		t.Errorf("planner does not beat fixed shapes: makespan %d vs %d, utilization %.4f vs %.4f",
			g.Planner.Makespan, g.Fixed.Makespan, g.Planner.Utilization, g.Fixed.Utilization)
	}
}
