package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tilevm/internal/raw"
	"tilevm/internal/workload"
)

func plannerParams(w, h int) raw.Params {
	p := raw.DefaultParams()
	p.Width, p.Height = w, h
	return p
}

// With default profiles and a fully subscribed fabric the planner's
// budget collapses to the 4×2 base shape and its shape search
// reproduces the profile-free base-tier carve bit for bit — the
// compatibility anchor the invariance battery builds on.
func TestPlanFabricMatchesCarveAtFullSubscription(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {2, 8}, {6, 4}} {
		p := plannerParams(g[0], g[1])
		fixed, err := planFabric(p, nil, 0)
		if err != nil {
			t.Fatalf("%dx%d base tier: %v", g[0], g[1], err)
		}
		planned, err := planFabric(p, make([]GuestProfile, len(fixed)), len(fixed))
		if err != nil {
			t.Fatalf("%dx%d planFabric: %v", g[0], g[1], err)
		}
		if !reflect.DeepEqual(planned, fixed) {
			t.Fatalf("%dx%d: planner full-subscription carve diverges from base tier\nplanned: %+v\nfixed:   %+v",
				g[0], g[1], planned, fixed)
		}
	}
}

// An undersubscribed fabric grows every slot: 4 guests on 8×8 should
// get four 4×4 slots covering the whole fabric, not four 4×2 slots
// plus 32 idle tiles.
func TestPlanFabricGrowsUndersubscribedSlots(t *testing.T) {
	p := plannerParams(8, 8)
	slots, err := planFabric(p, make([]GuestProfile, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 4 {
		t.Fatalf("got %d slots, want 4", len(slots))
	}
	covered := map[int]bool{}
	for si := range slots {
		ts := slots[si].tiles()
		if len(ts) != 16 {
			t.Fatalf("slot %d has %d tiles, want 16 (4×4)", si, len(ts))
		}
		for _, tile := range ts {
			if covered[tile] {
				t.Fatalf("tile %d claimed twice", tile)
			}
			covered[tile] = true
		}
	}
	if len(covered) != p.Tiles() {
		t.Fatalf("covered %d of %d tiles", len(covered), p.Tiles())
	}
}

// The cost model splits roles per guest: a memory-bound profile (mcf's
// oversized pointer-chase working set) trades a translation slave for
// a second data bank, while a translation-bound profile (gcc's huge
// code footprint) keeps slaves.
func TestPlannerRoleSplitFollowsProfile(t *testing.T) {
	mcfProf, ok := workload.ByName("181.mcf")
	if !ok {
		t.Fatal("181.mcf profile missing")
	}
	gccProf, ok := workload.ByName("176.gcc")
	if !ok {
		t.Fatal("176.gcc profile missing")
	}
	mcf := ProfileFromWorkload(mcfProf)
	gcc := ProfileFromWorkload(gccProf)
	if mcf.MemWeight <= mcf.TransWeight {
		t.Fatalf("181.mcf should classify memory-bound: %+v", mcf)
	}
	if gcc.TransWeight <= gcc.MemWeight {
		t.Fatalf("176.gcc should classify translation-bound: %+v", gcc)
	}

	p := plannerParams(4, 4)
	slots, err := planFabric(p, []GuestProfile{mcf, gcc}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(slots[0].slaves); got != 1 {
		t.Fatalf("mcf slot: %d slaves, want 1 (banks %d)", got, len(slots[0].banks))
	}
	if got := len(slots[0].banks); got != 2 {
		t.Fatalf("mcf slot: %d banks, want 2", got)
	}
	if got := len(slots[1].slaves); got != 2 {
		t.Fatalf("gcc slot: %d slaves, want 2 (banks %d)", got, len(slots[1].banks))
	}
	// Same fabric, heterogeneous slots: geometry identical to the base
	// tier, only the flexible-role assignment differs.
	fixed, err := planFabric(p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for si := range slots {
		got := append([]int(nil), slots[si].tiles()...)
		want := append([]int(nil), fixed[si].tiles()...)
		sortInts(got)
		sortInts(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d occupies different tiles than the base tier: %v vs %v", si, got, want)
		}
	}
}

// Every planned slot keeps the invariants the base tier guarantees:
// the five fixed roles, exactly one L1.5 bank, at least one slave and
// one bank, and the exec tile adjacent to manager, MMU, and L1.5.
func TestPlanSlotAtLayoutInvariants(t *testing.T) {
	p := plannerParams(16, 16)
	for _, s := range slotShapes {
		for _, horiz := range []bool{true, false} {
			w, h := s.w, s.h
			if !horiz {
				w, h = h, w
			}
			for _, gp := range []GuestProfile{{}, {TransWeight: 1, MemWeight: 10}, {TransWeight: 10, MemWeight: 1}} {
				pl := planSlotAt(p, 0, 0, w, h, gp)
				slotInvariants(t, p, 0, pl, map[int]int{})
				if got := len(pl.tiles()); got != s.w*s.h {
					t.Fatalf("%dx%d: %d tiles, want %d", w, h, got, s.w*s.h)
				}
			}
		}
	}
}

func TestSplitRolesBounds(t *testing.T) {
	for cells := 2; cells <= 12; cells++ {
		for _, gp := range []GuestProfile{{}, {TransWeight: 1e9, MemWeight: 1}, {TransWeight: 1, MemWeight: 1e9}} {
			s := splitRoles(cells, gp)
			if s < 1 || s > cells-1 {
				t.Fatalf("cells=%d profile=%+v: split %d out of bounds", cells, gp, s)
			}
		}
	}
	// Default profile on 3 flexible cells reproduces the fixed
	// 2-slave/1-bank split.
	if s := splitRoles(3, GuestProfile{}); s != 2 {
		t.Fatalf("default split on 3 cells = %d, want 2", s)
	}
}

// The cannot-fit error must name the requested shape, the fabric
// dimensions, and the occupied-slot map, so placement failures are
// debuggable from the message alone.
func TestNoFitErrorIsStructured(t *testing.T) {
	p := plannerParams(6, 2) // fits exactly one 4×2 slot
	_, err := planFabric(p, nil, 3)
	if err == nil {
		t.Fatal("expected carve failure")
	}
	var nf *NoFitError
	if !asNoFit(err, &nf) {
		t.Fatalf("want *NoFitError, got %T: %v", err, err)
	}
	if nf.Want != 3 || nf.Placed != 1 || nf.Width != 6 || nf.Height != 2 || nf.SlotW != 4 || nf.SlotH != 2 {
		t.Fatalf("unexpected fields: %+v", nf)
	}
	if len(nf.Occupied) != p.Tiles() {
		t.Fatalf("occupancy map has %d entries, want %d", len(nf.Occupied), p.Tiles())
	}
	msg := err.Error()
	for _, want := range []string{
		"3 VM slots requested", // requested count
		"6×2 fabric",           // fabric dimensions
		"fits only 1",          // what actually fit (substring pinned by fleet tests)
		"4×2",                  // shape tried
		"0000..\n  0000..",     // occupancy map: slot 0's 4×2 then two free columns
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}

	// The planner's shape search reports the same structured error.
	_, err = planFabric(p, make([]GuestProfile, 3), 3)
	if !asNoFit(err, &nf) {
		t.Fatalf("planFabric with profiles: want *NoFitError, got %T: %v", err, err)
	}
	if nf.Want != 3 || nf.Placed != 1 {
		t.Fatalf("planFabric fields: %+v", nf)
	}
}

// planFabric falls back shape tier by shape tier: when the largest
// affordable shape cannot yield the requested slot count, it retries
// with smaller shapes rather than failing.
func TestPlanFabricShapeFallback(t *testing.T) {
	// 6 guests on 8×8: budget 10 selects the 3×3 tier, but a row-major
	// 3×3 carve of an 8×8 wastes edge columns; the carve still must
	// produce all 6 slots (worst case via the 4×2 base tier).
	p := plannerParams(8, 8)
	slots, err := planFabric(p, make([]GuestProfile, 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 6 {
		t.Fatalf("got %d slots, want 6", len(slots))
	}
	seen := map[int]bool{}
	for si := range slots {
		for _, tile := range slots[si].tiles() {
			if seen[tile] {
				t.Fatalf("tile %d claimed twice", tile)
			}
			seen[tile] = true
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func asNoFit(err error, target **NoFitError) bool {
	return errors.As(err, target)
}

func profilesFor(t *testing.T, names ...string) []GuestProfile {
	t.Helper()
	out := make([]GuestProfile, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		out[i] = ProfileFromWorkload(p)
	}
	return out
}

// TestFleetInvarianceUnderPlanner re-runs the invariance battery's core
// property with the placement planner driving the carve: grown slots
// (undersubscribed fabrics), heterogeneous profile-driven role splits,
// and oversubscribed hand-off churn all preserve solo fingerprints.
func TestFleetInvarianceUnderPlanner(t *testing.T) {
	names := []string{"164.gzip", "181.mcf", "176.gcc", "164.gzip"}
	imgs := fleetImgs(t, names...)
	solo := soloFingerprints(t, imgs)
	profiles := profilesFor(t, names...)

	hostings := []struct {
		name string
		w, h int
		fc   FleetConfig
	}{
		{"8x8/planner/grown", 8, 8, FleetConfig{Profiles: make([]GuestProfile, len(names))}},
		{"8x8/planner/profiles", 8, 8, FleetConfig{Profiles: profiles}},
		{"4x4/planner/oversub", 4, 4, FleetConfig{Profiles: make([]GuestProfile, len(names))}},
		{"8x8/planner/2slots", 8, 8, FleetConfig{Profiles: make([]GuestProfile, len(names)), MaxSlots: 2}},
	}
	for _, hc := range hostings {
		fr, err := RunFleet(imgs, fleetCfg(hc.w, hc.h), hc.fc)
		if err != nil {
			t.Fatalf("%s: %v", hc.name, err)
		}
		checkFleetInvariance(t, hc.name, fr, imgs, solo)
	}
}
