package core

import (
	"fmt"
	"strings"

	"tilevm/internal/raw"
)

// Fleet slots: the fabric is cut into complete virtual machines, each a
// rectangle holding a full service set — syscall proxy, L1.5 bank,
// translation slaves, manager, execution tile, MMU, and data banks —
// arranged so the execution tile is adjacent to its manager, MMU, and
// L1.5 bank, the same layout constraint the fixed 4×4 pair split
// encodes (see DESIGN.md §9). The one placer that does the cutting is
// planFabric (planner.go); its base tier is the 8-tile 4×2 slot (or its
// 2×4 transpose) with two slaves and one bank:
//
//	4×2 slot            2×4 slot
//	sys  l15  slv  slv      sys  mgr
//	mgr  exec mmu  bank     l15  exec
//	                        slv  mmu
//	                        slv  bank

// slotTiles is the number of tiles a base-tier VM slot occupies, the
// smallest slot there is.
const slotTiles = 8

// maxFabricDim bounds carving so a hostile Width/Height cannot demand
// an absurd allocation; real experiments use 4×4 through 16×16.
const maxFabricDim = 256

// NoFitError reports a carve that could not place every requested
// slot. Beyond the headline counts it carries the smallest slot shape
// the placer tried and the tile→slot occupancy map at the point the
// scan gave up, so "why doesn't guest 7 fit on my 10×6?" is answerable
// from the error text alone.
type NoFitError struct {
	Want   int // slots requested
	Placed int // slots the carve managed to place
	SlotW  int // smallest slot shape tried (canonical orientation)
	SlotH  int
	Width  int // fabric dimensions
	Height int
	// Occupied maps tile id → slot index (-1 for free tiles), row-major
	// over the fabric, as of the failed carve.
	Occupied []int
}

// occupancyGlyph renders one slot index for the error's fabric map.
func occupancyGlyph(si int) byte {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	switch {
	case si < 0:
		return '.'
	case si < len(digits):
		return digits[si]
	default:
		return '#'
	}
}

func (e *NoFitError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d VM slots requested but the %d×%d fabric fits only %d (smallest shape tried %d×%d; occupancy, '.'=free):",
		e.Want, e.Width, e.Height, e.Placed, e.SlotW, e.SlotH)
	for y := 0; y < e.Height; y++ {
		b.WriteString("\n  ")
		for x := 0; x < e.Width; x++ {
			i := y*e.Width + x
			if i < len(e.Occupied) {
				b.WriteByte(occupancyGlyph(e.Occupied[i]))
			} else {
				b.WriteByte('?')
			}
		}
	}
	return b.String()
}

// tiles lists every tile a placement occupies, in a fixed service-role
// order (sys, l15…, slaves…, manager, exec, mmu, banks…). For a fleet
// slot the list has at least slotTiles entries and no duplicates.
func (pl *placement) tiles() []int {
	out := []int{pl.sys}
	out = append(out, pl.l15...)
	out = append(out, pl.slaves...)
	out = append(out, pl.manager, pl.exec, pl.mmu)
	out = append(out, pl.banks...)
	return out
}

// FleetSlot is the public shape of one carved VM slot: which tile holds
// each service role. Benchmarks and fault-plan authors use it to aim
// fail clauses at a specific slot's manager or slave without
// hard-coding the carve order.
type FleetSlot struct {
	Sys     int
	L15     []int
	Slaves  []int
	Manager int
	Exec    int
	MMU     int
	Banks   []int
}

// FleetSlotLayout returns the base-tier carve of the fabric in carve
// order: every slot that fits. A fleet without guest profiles runs on
// a prefix of it (MaxSlots, never more slots than guests). Its length
// is the fleet's concurrency limit; it errors when the fabric fits no
// slot, so CLIs can reject an impossible -grid before building any
// guest image.
func FleetSlotLayout(p raw.Params) ([]FleetSlot, error) {
	slots, err := planFabric(p, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make([]FleetSlot, len(slots))
	for i, pl := range slots {
		out[i] = FleetSlot{
			Sys:     pl.sys,
			L15:     append([]int(nil), pl.l15...),
			Slaves:  append([]int(nil), pl.slaves...),
			Manager: pl.manager,
			Exec:    pl.exec,
			MMU:     pl.mmu,
			Banks:   append([]int(nil), pl.banks...),
		}
	}
	return out, nil
}

// slotIndexOf maps every tile of every slot to its slot index, for
// translating a fault plan's tile targets into slot quarantines.
func slotIndexOf(slots []placement) map[int]int {
	m := map[int]int{}
	for si := range slots {
		for _, t := range slots[si].tiles() {
			m[t] = si
		}
	}
	return m
}
