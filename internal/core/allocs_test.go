package core

import (
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/translate"
)

// The code path allocates its tables once per slot and nothing per
// block it serves (DESIGN.md §7 "Code-path storage"). The ceilings are
// pinned from the dense-table code's counts, 575 and 1,675; the code
// path of Go maps keyed by guest PC read 14,263 allocations for the
// warm gcc run and 2,396 for the second gzip admission, so a map or a
// per-event allocation creeping back trips them.

// A memo-warm 176.gcc run translates nothing: what it allocates is the
// machine, the slot's tables and the guest's address space.
func TestWarmRunAllocs(t *testing.T) {
	const ceiling = 650
	img := fleetImgs(t, "176.gcc")[0]
	cfg := DefaultConfig()
	cfg.Memo = translate.NewMemo()
	if _, err := Run(img, cfg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(2, func() {
		if _, err := Run(img, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > ceiling {
		t.Errorf("a memo-warm gcc run allocates %.0f objects, ceiling %d", n, ceiling)
	}
}

// A slot's second guest reuses the first one's code-path tables, data
// cache and data banks: on a one-slot 4×4 fleet (MaxSlots 1; the 4×4
// fabric holds two slots), gzip twice allocates what gzip once does
// plus the second admission — its address space, its translations and
// its engine. 1,440 objects; 1,453 when each admission built its own
// data cache and banks.
func TestSecondAdmissionAllocs(t *testing.T) {
	const ceiling = 1550
	gz := fleetImgs(t, "164.gzip")[0]
	cfg := DefaultConfig()
	run := func(imgs ...*guest.Image) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := RunFleet(imgs, cfg, FleetConfig{MaxSlots: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, twice := run(gz), run(gz, gz)
	if second := twice - once; second > ceiling {
		t.Errorf("the second admission allocates %.0f objects (%.0f for the fleet, %.0f for gzip once), ceiling %d",
			second, twice, once, ceiling)
	}
}
