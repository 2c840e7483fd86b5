// Package fault provides deterministic fault injection for the
// simulated Raw machine. A Plan is a list of (tile, cycle) events: tiles
// that fail-stop, and tiles that stall for a number of cycles. An
// Injector answers the machine's questions about the plan ("has this
// tile failed?", "is a stall due?") at well-defined scheduling points;
// the discrete-event kernel makes the order of those questions
// deterministic, so a plan produces the same fault history bit-for-bit
// on every run. There is no randomness in any mode.
//
// The injector is a passive oracle: it answers and counts. When no plan
// is installed the machine contains no fault code path at all, so the
// zero-fault configuration is bit-identical to a build without this
// package.
package fault

import "math"

// TileFail is a permanent fail-stop: from the given cycle on, the tile
// neither processes nor emits messages (messages addressed to it are
// silently consumed).
type TileFail struct {
	Tile  int
	Cycle uint64
}

// TileStall is a transient fault: the tile is stalled from Cycle for Dur
// cycles. The first time it is scheduled at or after Cycle it loses what
// is left of that window, then resumes normally.
type TileStall struct {
	Tile  int
	Cycle uint64
	Dur   uint64
}

// Plan is a complete, serializable fault schedule. Each tile fault
// fires exactly once at its cycle.
type Plan struct {
	Fails  []TileFail
	Stalls []TileStall
}

// Empty reports whether the plan injects nothing (it is then safe to
// run without an injector at all).
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Fails) == 0 && len(p.Stalls) == 0)
}

// Kind identifies an injected fault class, for the Observe hook and the
// replay journal. The values are part of the journal and of the trace's
// "fault" instants, so they are spelled out.
type Kind uint8

const (
	KindStall Kind = 4
	KindFail  Kind = 5
)

// Counts tallies the faults actually injected during a run.
type Counts struct {
	Stalls uint64
	Fails  uint64
}

// Total is the total number of injected faults of all kinds.
func (c Counts) Total() uint64 { return c.Stalls + c.Fails }

// Injector evaluates a Plan during a run. It is not safe for
// concurrent use; the discrete-event kernel guarantees the single
// caller the determinism argument needs.
type Injector struct {
	counts Counts

	failAt map[int]uint64 // tile → fail-stop cycle
	failed map[int]bool   // tile → fail already observed
	stalls map[int][]TileStall

	// Observe, when non-nil, is called once per injected fault with the
	// fault class, the tile it hit and the virtual cycle. The
	// record-replay journal hangs off this hook; it must not perturb
	// simulation state.
	Observe func(kind Kind, tile int, now uint64)
}

func (in *Injector) observe(kind Kind, tile int, now uint64) {
	if in.Observe != nil {
		in.Observe(kind, tile, now)
	}
}

// NewInjector builds an injector for the plan. A nil plan yields a nil
// injector, which every hook treats as "no faults".
func NewInjector(p *Plan) *Injector {
	if p.Empty() {
		return nil
	}
	in := &Injector{
		failAt: map[int]uint64{},
		failed: map[int]bool{},
		stalls: map[int][]TileStall{},
	}
	for _, f := range p.Fails {
		if at, ok := in.failAt[f.Tile]; !ok || f.Cycle < at {
			in.failAt[f.Tile] = f.Cycle // a tile fails at its earliest clause
		}
	}
	for _, s := range p.Stalls {
		in.stalls[s.Tile] = append(in.stalls[s.Tile], s)
	}
	return in
}

// FailedAt reports whether the tile has fail-stopped by the given
// cycle. The first true observation per tile is counted.
func (in *Injector) FailedAt(tile int, now uint64) bool {
	at, ok := in.failAt[tile]
	if !ok || now < at {
		return false
	}
	if !in.failed[tile] {
		in.failed[tile] = true
		in.counts.Fails++
		in.observe(KindFail, tile, now)
	}
	return true
}

// StallTake returns (and consumes) what is left at cycle now of a
// tile's planned stalls that have begun: each fires once, the first time
// the tile asks at or after its cycle, and the tile loses the rest of
// the latest window among them, max(Cycle+Dur) - now, or nothing if
// every one has already ended. Every stall that fires is counted, spent
// or not.
func (in *Injector) StallTake(tile int, now uint64) uint64 {
	pend := in.stalls[tile]
	if len(pend) == 0 {
		return 0
	}
	var end uint64
	kept := pend[:0]
	for _, s := range pend {
		if now >= s.Cycle {
			end = max(end, s.Cycle+min(s.Dur, math.MaxUint64-s.Cycle))
			in.counts.Stalls++
			in.observe(KindStall, tile, now)
		} else {
			kept = append(kept, s)
		}
	}
	in.stalls[tile] = kept
	if end <= now {
		return 0
	}
	return end - now
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}
