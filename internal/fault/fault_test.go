package fault

import (
	"math"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	in := "fail:8@200000,stall:7@50000+20000"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fails) != 1 || p.Fails[0] != (TileFail{Tile: 8, Cycle: 200000}) {
		t.Errorf("fails = %+v", p.Fails)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (TileStall{Tile: 7, Cycle: 50000, Dur: 20000}) {
		t.Errorf("stalls = %+v", p.Stalls)
	}
	for _, in := range []string{
		in,
		// One tile in two fail clauses, the later listed first: String
		// sorts them, so the plan and its String form list them in
		// opposite orders, and both must kill the tile at 50,000.
		"fail:7@100000,fail:7@50000",
	} {
		p, err := ParsePlan(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if back.String() != p.String() {
			t.Errorf("round trip %q != %q", back.String(), p.String())
		}
		// The String form is what a record replays, so it must be the
		// same fault history, not just the same text: the two agree just
		// before each clause's cycle, and at it the tile has failed.
		orig, rt := NewInjector(p), NewInjector(back)
		for _, f := range p.Fails {
			if a, b := orig.FailedAt(f.Tile, f.Cycle-1), rt.FailedAt(f.Tile, f.Cycle-1); a != b {
				t.Errorf("%q: tile %d at cycle %d: failed %v, its String form %q says %v",
					in, f.Tile, f.Cycle-1, a, p.String(), b)
			}
			if a, b := orig.FailedAt(f.Tile, f.Cycle), rt.FailedAt(f.Tile, f.Cycle); !a || !b {
				t.Errorf("%q: tile %d at its fail cycle %d: failed %v, its String form %q says %v",
					in, f.Tile, f.Cycle, a, p.String(), b)
			}
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"fail:8", "fail:x@1", "stall:1@2", "stall:1@2+x", "frobnicate:1", "fail",
		// The probabilistic message and DRAM faults are not part of the
		// language.
		"drop:0.1", "delay:0.002+40", "corrupt:0.01", "dram:0.05",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Error("parsed empty plan not Empty")
	}
	if NewInjector(p) != nil {
		t.Error("injector for empty plan should be nil")
	}
	if NewInjector(nil) != nil {
		t.Error("injector for nil plan should be nil")
	}
	var nilInj *Injector
	if nilInj.Counts().Total() != 0 {
		t.Error("nil injector counts nonzero")
	}
}

// TestInjectorDeterminism: two injectors over the same plan, one of
// them with the clauses listed in reverse, answer the same query
// sequence identically.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{
		Fails: []TileFail{{Tile: 3, Cycle: 100}, {Tile: 9, Cycle: 2500}},
		Stalls: []TileStall{{Tile: 5, Cycle: 50, Dur: 7}, {Tile: 5, Cycle: 1200, Dur: 30},
			{Tile: 9, Cycle: 400, Dur: 11}},
	}
	reversed := &Plan{}
	for i := len(plan.Fails) - 1; i >= 0; i-- {
		reversed.Fails = append(reversed.Fails, plan.Fails[i])
	}
	for i := len(plan.Stalls) - 1; i >= 0; i-- {
		reversed.Stalls = append(reversed.Stalls, plan.Stalls[i])
	}
	type answer struct {
		failed bool
		stall  uint64
	}
	run := func(p *Plan) ([]answer, Counts) {
		in := NewInjector(p)
		var as []answer
		for i := 0; i < 5000; i++ {
			tile, now := []int{3, 5, 9}[i%3], uint64(i)
			as = append(as, answer{in.FailedAt(tile, now), in.StallTake(tile, now)})
		}
		return as, in.Counts()
	}
	a1, c1 := run(plan)
	a2, c2 := run(reversed)
	if c1 != c2 {
		t.Fatalf("counts diverged: %+v vs %+v", c1, c2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answer %d diverged: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	if c1 != (Counts{Stalls: 3, Fails: 2}) {
		t.Errorf("counts = %+v, want every clause once", c1)
	}
}

// TestFailedAtAndStallTake: a stall costs what is left of its window
// when its tile is next scheduled — of the latest window, when several
// have begun — and nothing once the window has closed; each is counted
// once either way.
func TestFailedAtAndStallTake(t *testing.T) {
	in := NewInjector(&Plan{Fails: []TileFail{{Tile: 2, Cycle: 1000}},
		Stalls: []TileStall{{Tile: 2, Cycle: 500, Dur: 99}, {Tile: 2, Cycle: 520, Dur: 30}, {Tile: 2, Cycle: 800, Dur: 50}}})
	if in.FailedAt(2, 999) {
		t.Error("failed before cycle")
	}
	if !in.FailedAt(2, 1000) || !in.FailedAt(2, 2000) {
		t.Error("not failed at/after cycle")
	}
	if in.FailedAt(3, 5000) {
		t.Error("unplanned tile failed")
	}
	if d := in.StallTake(2, 499); d != 0 {
		t.Errorf("stall fired early: %d", d)
	}
	if d := in.StallTake(2, 550); d != 49 {
		t.Errorf("stall = %d, want 49: the rest of the window 500-599, which outlasts 520-550", d)
	}
	if d := in.StallTake(2, 700); d != 0 {
		t.Errorf("stall fired twice: %d", d)
	}
	if d := in.StallTake(2, 900); d != 0 {
		t.Errorf("stall = %d, want 0: its window closed at 850", d)
	}
	if c := in.Counts(); c.Fails != 1 || c.Stalls != 3 {
		t.Errorf("counts = %+v, want 1 fail and 3 stalls", c)
	}
	// A window past the last cycle does not wrap around to nothing.
	forever := NewInjector(&Plan{Stalls: []TileStall{{Tile: 1, Cycle: 100, Dur: math.MaxUint64}}})
	if d := forever.StallTake(1, 200); d != math.MaxUint64-200 {
		t.Errorf("endless stall = %d, want %d", d, uint64(math.MaxUint64-200))
	}
}
