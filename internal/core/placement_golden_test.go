package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"tilevm/internal/raw"
)

// placementBaseCases are the fabrics the base-tier golden pins: every
// slot's role→tile list of the 4×2/2×4 scan, or its error. want is the
// requested slot count (0 = as many as fit, the capacity scan RunFleet
// and FleetSlotLayout make). fullSub marks the fabrics whose capacity
// is the planner's full subscription: there the planner, handed that
// many zero profiles, must settle on the base tier and carve the same
// slots.
var placementBaseCases = []struct {
	w, h, want int
	fullSub    bool
}{
	{4, 4, 0, true}, // the paper's pair split: slots 0 and 1 are the two-VM placement
	{8, 8, 0, true},
	{16, 16, 0, true},
	{2, 8, 0, true},
	{2, 4, 0, false},
	{4, 2, 0, false},
	{6, 4, 0, true},  // two 4×2 stacked + one 2×4 in the spare column
	{5, 5, 0, false}, // ragged fit leaves the fifth row/column idle
	{6, 2, 0, false},
	{8, 8, 3, false}, // MaxSlots 3
	{4, 4, 3, false}, // demanding more slots than fit fails, never truncates
	{6, 2, 3, false},
	{3, 3, 0, false},  // too small in both orientations
	{2, 2, 0, false},  // passes the minimum-dimension gate but fits nothing
	{1, 16, 0, false}, // a 1-wide strip fits neither orientation
	{300, 4, 0, false},
}

// renderSlots writes one carve as the golden text: the slot layouts in
// carve order, or the error.
func renderSlots(b *bytes.Buffer, slots []FleetSlot, err error) {
	if err != nil {
		fmt.Fprintf(b, "  error: %v\n", err)
		return
	}
	for si, s := range slots {
		fmt.Fprintf(b, "  slot %d: sys=%d l15=%v slaves=%v manager=%d exec=%d mmu=%d banks=%v\n",
			si, s.Sys, s.L15, s.Slaves, s.Manager, s.Exec, s.MMU, s.Banks)
	}
}

func publicSlots(slots []placement) []FleetSlot {
	out := make([]FleetSlot, len(slots))
	for i, pl := range slots {
		out[i] = FleetSlot{Sys: pl.sys, L15: pl.l15, Slaves: pl.slaves,
			Manager: pl.manager, Exec: pl.exec, MMU: pl.mmu, Banks: pl.banks}
	}
	return out
}

// TestPlacementBaseTierGolden pins the base-tier carve — the slots every
// fleet without guest profiles runs on — to a file recorded from the
// fixed carver before the planner took over its job. FleetSlotLayout
// must print the same capacity carve, and on the full-subscription
// fabrics so must the planner. Re-recording is deliberate: delete the
// file and run the test once.
func TestPlacementBaseTierGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range placementBaseCases {
		p := raw.DefaultParams()
		p.Width, p.Height = c.w, c.h
		fmt.Fprintf(&got, "%dx%d want=%d\n", c.w, c.h, c.want)
		slots, err := planFabric(p, nil, c.want)
		var one bytes.Buffer
		renderSlots(&one, publicSlots(slots), err)
		got.Write(one.Bytes())

		if c.want == 0 {
			ls, err := FleetSlotLayout(p)
			var layout bytes.Buffer
			renderSlots(&layout, ls, err)
			if !bytes.Equal(layout.Bytes(), one.Bytes()) {
				t.Errorf("%dx%d: FleetSlotLayout\n%s carve\n%s", c.w, c.h, layout.Bytes(), one.Bytes())
			}
		}
		if c.fullSub {
			planned, err := planFabric(p, make([]GuestProfile, len(slots)), len(slots))
			var plan bytes.Buffer
			renderSlots(&plan, publicSlots(planned), err)
			if !bytes.Equal(plan.Bytes(), one.Bytes()) {
				t.Errorf("%dx%d: planner at full subscription\n%s carve\n%s", c.w, c.h, plan.Bytes(), one.Bytes())
			}
		}
	}

	path := filepath.Join("testdata", "placement_base.golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; check it in and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("base-tier carve differs from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
