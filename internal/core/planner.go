package core

import (
	"math"
	"strings"

	"tilevm/internal/raw"
	"tilevm/internal/workload"
)

// Placement: the one placer that cuts the fabric into VM slots. Without
// guest profiles it scans the base tier only, handing every guest the
// same 8-tile 4×2 slot with a 2-slave/1-bank split. With profiles it
// searches rectangular slot shapes and sizes under a per-guest cost
// model, so memory-bound guests trade translation slaves for L2 data
// banks, translation-bound guests do the opposite, and an
// undersubscribed fabric grows every slot instead of leaving tiles
// idle. The search is deterministic: same fabric, same guests, same
// profiles → byte-identical carve.

// GuestProfile is the planner's per-guest cost model: the relative
// demand a guest puts on the two elastic service roles. TransWeight
// prices translation-slave bandwidth (code footprint: more functions
// and blocks mean more translation work); MemWeight prices L2
// data-bank capacity and bandwidth (data footprint and access
// intensity). Only the ratio matters. The zero value selects
// defaultGuestProfile.
type GuestProfile struct {
	TransWeight float64
	MemWeight   float64
}

// defaultGuestProfile gives the base tier its 2-slave/1-bank split on
// an 8-tile slot: with three flexible cells, minimizing
// 2/S + 1/(3−S) lands on S = 2 slaves.
func defaultGuestProfile() GuestProfile {
	return GuestProfile{TransWeight: 2, MemWeight: 1}
}

// zero reports whether the profile is unset (falls back to default).
func (gp GuestProfile) zero() bool {
	return gp.TransWeight == 0 && gp.MemWeight == 0
}

// ProfileFromWorkload derives a cost-model profile from a synthetic
// workload's static parameters — the "fed from workload profiles"
// source; callers with prior-run metrics can construct a GuestProfile
// directly instead. TransWeight scales with the code footprint the
// slaves must translate; MemWeight scales with the data footprint the
// banks must hold, weighted up for access intensity and for
// pointer-chasing (each hop is a dependent L2 round trip, so bank
// count is the paper's Figure 10 lever for those guests). Calibrated
// so 181.mcf (96KB pointer chase overflowing one 32KB bank) classifies
// memory-bound while the code-heavy SpecInt profiles stay
// translation-bound.
func ProfileFromWorkload(p workload.Profile) GuestProfile {
	trans := float64(p.Funcs) * float64(p.BlocksPerFunc) * float64(p.InstsPerBlock)
	mem := float64(p.DataBytes) / 256 * (1 + p.MemFrac)
	if p.PointerChase {
		mem *= 2
	}
	gp := GuestProfile{TransWeight: trans, MemWeight: mem}
	if gp.zero() {
		return defaultGuestProfile()
	}
	return gp
}

// slotShapes is the planner's shape menu, largest first. Every shape
// is at least 3 wide and 2 high in canonical orientation, so the five
// fixed service roles always fit with the execution tile adjacent to
// its manager, MMU, and L1.5 bank. The menu ends with the 4×2 base
// tier, which guarantees the planner can always fall back to the base
// carve's capacity.
var slotShapes = []struct{ w, h int }{
	{4, 4}, // 16 tiles: undersubscribed fabrics
	{4, 3}, // 12 tiles
	{3, 3}, // 9 tiles
	{4, 2}, // 8 tiles: the base tier
}

// splitRoles picks the slave count for a slot with cells flexible
// tiles by minimizing the cost model TransWeight/S + MemWeight/(cells−S):
// each role's service latency shrinks inversely with the tiles backing
// it, so the optimum balances the guest's two demands. At least one
// slave and one bank always survive. Ties break toward fewer slaves
// (ascending scan, strict improvement) so the split is deterministic.
func splitRoles(cells int, gp GuestProfile) int {
	if gp.zero() {
		gp = defaultGuestProfile()
	}
	best, bestCost := 1, math.Inf(1)
	for s := 1; s <= cells-1; s++ {
		cost := gp.TransWeight/float64(s) + gp.MemWeight/float64(cells-s)
		if cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// planSlotAt builds the placement for a w×h slot anchored at (x0,y0),
// with the slave/bank split chosen by the guest's profile. The five
// fixed roles occupy the same canonical cells in every shape — sys
// (0,0), L1.5 (1,0), manager (0,1), exec (1,1), MMU (2,1) — so the exec
// tile's adjacency constraint holds for every menu shape; the remaining
// cells are flexible, enumerated row-major, first S to slaves and the
// rest to banks. On a 4×2 with the default profile that is the two
// slaves (2,0), (3,0) and the bank (3,1) of the base-tier slot.
func planSlotAt(p raw.Params, x0, y0, w, h int, gp GuestProfile) placement {
	cw, ch := w, h
	horiz := true
	if cw < ch {
		cw, ch = ch, cw
		horiz = false
	}
	t := func(dx, dy int) int {
		if !horiz {
			dx, dy = dy, dx
		}
		return p.TileAt(x0+dx, y0+dy)
	}
	var flex []int
	for x := 2; x < cw; x++ {
		flex = append(flex, t(x, 0))
	}
	for x := 3; x < cw; x++ {
		flex = append(flex, t(x, 1))
	}
	for y := 2; y < ch; y++ {
		for x := 0; x < cw; x++ {
			flex = append(flex, t(x, y))
		}
	}
	s := splitRoles(len(flex), gp)
	return placement{
		sys:     t(0, 0),
		l15:     []int{t(1, 0)},
		manager: t(0, 1),
		exec:    t(1, 1),
		mmu:     t(2, 1),
		slaves:  append([]int(nil), flex[:s]...),
		banks:   append([]int(nil), flex[s:]...),
		// No switchable tiles: intra-VM morphing and fleet mode are
		// mutually exclusive, so a slot's role split is fixed at plan
		// time.
		switchIsBank: map[int]bool{},
	}
}

// planFabric is the placer; its errors are *ConfigErrors. want == 0 is
// the capacity scan: as many base-tier slots as fit, an error if none
// does (FleetSlotLayout, and RunFleet without MaxSlots). want > 0
// demands exactly want slots, an error wrapping a *NoFitError if they do
// not fit. Without profiles those are base-tier slots — the carve every
// fleet without guest profiles runs on. With
// profiles each slot gets an area budget of Tiles()/want and the
// largest menu shape within it, degrading shape tier by tier until the
// carve fits; the final tier is the base tier, so planFabric succeeds
// whenever the base carve does (RunFleet takes want from it).
// profiles[i] shapes slot i's slave/bank split (initial admission binds
// guest i to slot i); missing or zero entries take the default profile.
func planFabric(p raw.Params, profiles []GuestProfile, want int) ([]placement, error) {
	if p.Width < 2 || p.Height < 2 {
		return nil, configErr([]string{"Params"}, "%d×%d fabric cannot host a VM slot (minimum slot is 4×2 tiles)", p.Width, p.Height)
	}
	if p.Width > maxFabricDim || p.Height > maxFabricDim {
		return nil, configErr([]string{"Params"}, "%d×%d fabric exceeds the %d×%d carving limit", p.Width, p.Height, maxFabricDim, maxFabricDim)
	}
	if want < 0 {
		return nil, configErr([]string{"MaxSlots"}, "%d VM slots requested", want)
	}
	base := len(slotShapes) - 1
	if want == 0 || len(profiles) == 0 {
		return tryPlan(p, profiles, want, base)
	}
	budget := p.Tiles() / want
	if budget < slotTiles {
		budget = slotTiles
	}
	first := base
	for si := 0; si < len(slotShapes); si++ {
		if slotShapes[si].w*slotShapes[si].h <= budget {
			first = si
			break
		}
	}
	var lastErr error
	for maxShape := first; maxShape <= base; maxShape++ {
		slots, err := tryPlan(p, profiles, want, maxShape)
		if err == nil {
			return slots, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// tryPlan attempts one carve with shapes from slotShapes[maxShape:]:
// a row-major greedy scan that claims, at each free anchor, the
// largest allowed shape that fits, trying each shape's canonical
// orientation before its transpose. want > 0 stops at want slots and
// fails with a NoFitError inside when fewer fit; want == 0 claims as many as
// fit and fails only when none does.
func tryPlan(p raw.Params, profiles []GuestProfile, want, maxShape int) ([]placement, error) {
	occ := make([]int, p.Tiles())
	for i := range occ {
		occ[i] = -1
	}
	fits := func(x0, y0, w, h int) bool {
		if x0+w > p.Width || y0+h > p.Height {
			return false
		}
		for dy := 0; dy < h; dy++ {
			for dx := 0; dx < w; dx++ {
				if occ[p.TileAt(x0+dx, y0+dy)] >= 0 {
					return false
				}
			}
		}
		return true
	}
	claim := func(x0, y0, w, h, si int) {
		for dy := 0; dy < h; dy++ {
			for dx := 0; dx < w; dx++ {
				occ[p.TileAt(x0+dx, y0+dy)] = si
			}
		}
	}
	profileFor := func(i int) GuestProfile {
		if i < len(profiles) {
			return profiles[i]
		}
		return GuestProfile{}
	}
	var slots []placement
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			if want > 0 && len(slots) == want {
				return slots, nil
			}
			for si := maxShape; si < len(slotShapes); si++ {
				s := slotShapes[si]
				placed := false
				for _, o := range [2][2]int{{s.w, s.h}, {s.h, s.w}} {
					if fits(x, y, o[0], o[1]) {
						claim(x, y, o[0], o[1], len(slots))
						slots = append(slots, planSlotAt(p, x, y, o[0], o[1], profileFor(len(slots))))
						placed = true
						break
					}
				}
				if placed {
					break
				}
			}
		}
	}
	if len(slots) == 0 && want == 0 {
		return nil, configErr([]string{"Params"}, "%d×%d fabric fits no 4×2 or 2×4 VM slot", p.Width, p.Height)
	}
	if len(slots) < want {
		base := slotShapes[len(slotShapes)-1]
		nf := &NoFitError{
			Want: want, Placed: len(slots),
			SlotW: base.w, SlotH: base.h,
			Width: p.Width, Height: p.Height,
			Occupied: occ,
		}
		return nil, &ConfigError{Fields: []string{"Params", "MaxSlots"}, Reason: strings.TrimPrefix(nf.Error(), "core: "), cause: nf}
	}
	return slots, nil
}
