package core

import (
	"reflect"
	"sync"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/raw"
	"tilevm/internal/workload"
)

// fleetCfg is the shared-fabric configuration for fleet tests.
func fleetCfg(w, h int) Config {
	cfg := DefaultConfig()
	cfg.Params.Width = w
	cfg.Params.Height = h
	cfg.MaxCycles = 4_000_000_000
	return cfg
}

// builtImgs holds the one image the test binary builds per workload.
// Images are read-only once built (guest.Load copies them), and a
// translation memo tells images apart by identity, so every test that
// names a workload gets the same *guest.Image.
var builtImgs struct {
	sync.Mutex
	m map[string]*guest.Image
}

// fleetImgs returns guest images by workload name.
func fleetImgs(t *testing.T, names ...string) []*guest.Image {
	t.Helper()
	builtImgs.Lock()
	defer builtImgs.Unlock()
	if builtImgs.m == nil {
		builtImgs.m = map[string]*guest.Image{}
	}
	imgs := make([]*guest.Image, len(names))
	for i, n := range names {
		img, ok := builtImgs.m[n]
		if !ok {
			p, ok := workload.ByName(n)
			if !ok {
				t.Fatalf("unknown workload %q", n)
			}
			img = p.Build()
			builtImgs.m[n] = img
		}
		imgs[i] = img
	}
	return imgs
}

func TestCarveFabricMatchesPairSplit(t *testing.T) {
	// On the default 4×4 grid the base-tier carve must reproduce the
	// original fixed pair split bit for bit: a two-guest fleet there is
	// the pre-fleet two-VM placement exactly.
	slots, err := planFabric(raw.DefaultParams(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("carved %d slots from 4×4, want 2", len(slots))
	}
	want := []struct {
		sys, l15, manager, exec, mmu, bank int
		slaves                             []int
	}{
		{0, 1, 4, 5, 6, 7, []int{2, 3}},
		{8, 9, 12, 13, 14, 15, []int{10, 11}},
	}
	for i, w := range want {
		s := slots[i]
		if s.sys != w.sys || s.l15[0] != w.l15 || s.manager != w.manager ||
			s.exec != w.exec || s.mmu != w.mmu || s.banks[0] != w.bank ||
			!reflect.DeepEqual(s.slaves, w.slaves) {
			t.Errorf("slot %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestCarveFabricCounts(t *testing.T) {
	cases := []struct {
		w, h  int
		slots int // 0 = expect error
	}{
		{4, 4, 2},
		{8, 8, 8},
		{16, 16, 32},
		{4, 2, 1},
		{2, 4, 1},
		{6, 4, 3},  // two 4×2 stacked + one 2×4 in the spare column
		{5, 5, 2},  // ragged fit leaves the fifth row/column idle
		{3, 3, 0},  // too small in both orientations
		{2, 2, 0},  // passes the minimum-dimension gate but fits nothing
		{1, 16, 0}, // a 1-wide strip fits neither orientation
		{300, 4, 0},
	}
	for _, tc := range cases {
		p := raw.DefaultParams()
		p.Width, p.Height = tc.w, tc.h
		slots, err := planFabric(p, nil, 0)
		if tc.slots == 0 {
			if err == nil {
				t.Errorf("%d×%d: carved %d slots, want error", tc.w, tc.h, len(slots))
			}
			continue
		}
		if err != nil {
			t.Errorf("%d×%d: %v", tc.w, tc.h, err)
			continue
		}
		if len(slots) != tc.slots {
			t.Errorf("%d×%d: carved %d slots, want %d", tc.w, tc.h, len(slots), tc.slots)
		}
	}
	// Demanding more slots than fit must fail, not truncate.
	if _, err := planFabric(raw.DefaultParams(), nil, 3); err == nil {
		t.Error("planFabric(4×4, nil, 3) succeeded, want error")
	}
}

// TestFleetSlots: the base-tier layout's length is the fleet's
// concurrency limit, and a fabric that fits no slot is an error.
func TestFleetSlots(t *testing.T) {
	p := raw.DefaultParams()
	if l, err := FleetSlotLayout(p); err != nil || len(l) != 2 {
		t.Errorf("FleetSlotLayout(4×4) = %d slots, %v; want 2, nil", len(l), err)
	}
	p.Width, p.Height = 3, 2
	if _, err := FleetSlotLayout(p); err == nil {
		t.Error("FleetSlotLayout(3×2) succeeded, want error")
	}
}

// TestFleetQueueAdmission runs three guests through a one-slot fabric:
// arrivals beyond the slot count queue, and each exit re-packs the
// freed slot with the next guest.
func TestFleetQueueAdmission(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	res, err := RunFleet(imgs, fleetCfg(4, 2), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 1 {
		t.Fatalf("carved %d slots from 4×2, want 1", res.Slots)
	}
	for gi, g := range res.Guests {
		if g.Result == nil {
			t.Fatalf("guest %d never ran", gi)
		}
		if g.Slot != 0 {
			t.Errorf("guest %d ran in slot %d, want 0", gi, g.Slot)
		}
		checkGuest(t, "fleet", g.Result, imgs[gi])
	}
	// Admissions are sequential on one slot: each guest starts only
	// after its predecessor finished.
	if res.Guests[0].Admitted != 0 {
		t.Errorf("guest 0 admitted at %d, want 0", res.Guests[0].Admitted)
	}
	for gi := 1; gi < len(res.Guests); gi++ {
		prev, cur := res.Guests[gi-1], res.Guests[gi]
		if cur.Admitted < prev.Finished {
			t.Errorf("guest %d admitted at %d before guest %d finished at %d",
				gi, cur.Admitted, gi-1, prev.Finished)
		}
	}
	last := res.Guests[len(res.Guests)-1]
	if res.Makespan != last.Finished || res.Makespan == 0 {
		t.Errorf("makespan %d, want last finish %d", res.Makespan, last.Finished)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization %v out of range", res.Utilization)
	}
}

// TestFleetDeterministic8x8 pins the acceptance criterion: ≥4 guests
// on an 8×8 fabric produce byte-identical metrics across repeated
// runs.
func TestFleetDeterministic8x8(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip", "181.mcf")
	run := func() *FleetResult {
		res, err := RunFleet(imgs, fleetCfg(8, 8), FleetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fleet run not deterministic:\nfirst  %+v\nsecond %+v", a, b)
	}
	if len(a.TileBusy) != 64 {
		t.Errorf("TileBusy covers %d tiles, want 64", len(a.TileBusy))
	}
	if a.Slots != 4 {
		t.Errorf("carved %d slots for 4 guests, want 4 (slots capped at guest count)", a.Slots)
	}
}

// TestFleetQueueWithLendingAcrossHandoffs drives the busiest admission
// corner: multiple slots and three times as many guests, so the two
// slots' handoffs interleave; every guest is checked against the
// reference interpreter.
func TestFleetQueueWithLendingAcrossHandoffs(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip", "181.mcf", "164.gzip", "176.gcc")
	res, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 2 {
		t.Fatalf("carved %d slots, want 2", res.Slots)
	}
	for gi, g := range res.Guests {
		if g.Result == nil {
			t.Fatalf("guest %d never ran", gi)
		}
		checkGuest(t, "fleet", g.Result, imgs[gi])
	}
}
