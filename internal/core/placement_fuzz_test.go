package core

import (
	"testing"

	"tilevm/internal/raw"
)

// slotInvariants checks one carved slot's structural contract: every
// role present exactly once, all tiles in bounds, and the execution
// tile Manhattan-adjacent to its manager, MMU, and L1.5 bank (the
// layout constraint that keeps the hot dispatch round trips to
// single-hop messages).
func slotInvariants(t *testing.T, p raw.Params, si int, pl placement, used map[int]int) {
	t.Helper()
	// Role-count contract: exactly one L1.5 bank, at least one
	// translation slave and one data bank (profiles vary the split and
	// the totals, the base tier always yields 2+1).
	if len(pl.l15) != 1 || len(pl.slaves) < 1 || len(pl.banks) < 1 {
		t.Fatalf("slot %d role counts wrong: %+v", si, pl)
	}
	tiles := pl.tiles()
	if len(tiles) < slotTiles {
		t.Fatalf("slot %d has only %d tiles, minimum is %d", si, len(tiles), slotTiles)
	}
	for _, tile := range tiles {
		if tile < 0 || tile >= p.Tiles() {
			t.Fatalf("slot %d tile %d out of bounds on %d×%d", si, tile, p.Width, p.Height)
		}
		if prev, clash := used[tile]; clash {
			t.Fatalf("tile %d claimed by slots %d and %d", tile, prev, si)
		}
		used[tile] = si
	}
	adjacent := func(a, b int) bool {
		ax, ay := p.XY(a)
		bx, by := p.XY(b)
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx+dy == 1
	}
	for _, n := range []struct {
		name string
		tile int
	}{{"manager", pl.manager}, {"mmu", pl.mmu}, {"l15", pl.l15[0]}} {
		if !adjacent(pl.exec, n.tile) {
			t.Errorf("slot %d: exec tile %d not adjacent to %s tile %d", si, pl.exec, n.name, n.tile)
		}
	}
}

// FuzzCarveFabric throws arbitrary fabric shapes and slot demands at
// the base tier (the placer without guest profiles, which every
// profile-free fleet runs on): any input must yield either an error or
// a set of disjoint, in-bounds, role-complete, adjacency-correct 4×2
// slots — exactly want of them, or at least one for the want == 0
// capacity scan — never a panic, and carving must be deterministic.
//
//	go test ./internal/core -run - -fuzz FuzzCarveFabric -fuzztime 30s
func FuzzCarveFabric(f *testing.F) {
	f.Add(4, 4, 0)
	f.Add(4, 4, 2)
	f.Add(8, 8, 8)
	f.Add(2, 4, 1)
	f.Add(5, 3, 0)
	f.Add(1, 1, 1)
	f.Add(0, -3, 0)
	f.Add(257, 4, 1)
	f.Add(16, 16, 33)
	f.Fuzz(func(t *testing.T, w, h, want int) {
		p := raw.DefaultParams()
		p.Width, p.Height = w, h
		slots, err := planFabric(p, nil, want)
		if err != nil {
			if len(slots) != 0 {
				t.Fatalf("%d×%d want=%d: error %v alongside %d slots", w, h, want, err, len(slots))
			}
			return
		}
		if len(slots) == 0 || (want > 0 && len(slots) != want) {
			t.Fatalf("%d×%d want=%d: carved %d slots without error", w, h, want, len(slots))
		}
		total := 0
		used := map[int]int{}
		for si, pl := range slots {
			total += len(pl.tiles())
			slotInvariants(t, p, si, pl, used)
			if len(pl.tiles()) != slotTiles {
				t.Fatalf("%d×%d want=%d: base-tier slot %d has %d tiles", w, h, want, si, len(pl.tiles()))
			}
		}
		if total > p.Tiles() {
			t.Fatalf("%d×%d: %d slots occupy %d tiles, fabric has %d", w, h, len(slots), total, p.Tiles())
		}
		again, err := planFabric(p, nil, want)
		if err != nil || len(again) != len(slots) {
			t.Fatalf("%d×%d want=%d: carve not deterministic (%v)", w, h, want, err)
		}
		for si := range slots {
			if !placementEqual(slots[si], again[si]) {
				t.Fatalf("%d×%d want=%d: slot %d differs between carves", w, h, want, si)
			}
		}
	})
}

// FuzzPlanFabric drives the placer with arbitrary fabric shapes, slot
// demands, and guest profile mixes: every outcome must be a structured
// error or a set of disjoint, in-bounds, role-complete,
// adjacency-correct slots — exactly want of them, or at least one for
// the want == 0 capacity scan — never a panic, and placing must be
// deterministic for a fixed (fabric, profiles, want) triple.
//
//	go test ./internal/core -run - -fuzz FuzzPlanFabric -fuzztime 30s
func FuzzPlanFabric(f *testing.F) {
	f.Add(4, 4, 2, int64(0))
	f.Add(8, 8, 8, int64(1))
	f.Add(8, 8, 4, int64(2))
	f.Add(16, 16, 33, int64(3))
	f.Add(1, 1, 1, int64(4))
	f.Add(0, -3, 1, int64(5))
	f.Add(257, 4, 1, int64(6))
	f.Add(6, 2, 3, int64(7))
	f.Fuzz(func(t *testing.T, w, h, want int, mix int64) {
		p := raw.DefaultParams()
		p.Width, p.Height = w, h
		var profiles []GuestProfile
		if want > 0 && want <= 1024 {
			profiles = make([]GuestProfile, want)
			for i := range profiles {
				// Deterministic per-index weight mix from the fuzzed seed:
				// spans translation-heavy, memory-heavy, and zero profiles.
				v := (mix >> (uint(i%16) * 4)) & 0xf
				profiles[i] = GuestProfile{
					TransWeight: float64(v),
					MemWeight:   float64(15 - v),
				}
			}
		}
		slots, err := planFabric(p, profiles, want)
		if err != nil {
			if len(slots) != 0 {
				t.Fatalf("%d×%d want=%d: error %v alongside %d slots", w, h, want, err, len(slots))
			}
			return
		}
		if len(slots) == 0 || (want > 0 && len(slots) != want) {
			t.Fatalf("%d×%d want=%d: placed %d slots without error", w, h, want, len(slots))
		}
		total := 0
		used := map[int]int{}
		for si, pl := range slots {
			total += len(pl.tiles())
			slotInvariants(t, p, si, pl, used)
		}
		if total > p.Tiles() {
			t.Fatalf("%d×%d: %d slots occupy %d tiles, fabric has %d", w, h, len(slots), total, p.Tiles())
		}
		again, err := planFabric(p, profiles, want)
		if err != nil || len(again) != len(slots) {
			t.Fatalf("%d×%d want=%d: plan not deterministic (%v)", w, h, want, err)
		}
		for si := range slots {
			if !placementEqual(slots[si], again[si]) {
				t.Fatalf("%d×%d want=%d: slot %d differs between plans", w, h, want, si)
			}
		}
	})
}

func placementEqual(a, b placement) bool {
	eq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.sys == b.sys && a.manager == b.manager && a.exec == b.exec && a.mmu == b.mmu &&
		eq(a.l15, b.l15) && eq(a.slaves, b.slaves) && eq(a.banks, b.banks)
}
