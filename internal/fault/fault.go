// Package fault provides deterministic, seeded fault injection for the
// simulated Raw machine. A Plan describes *what* can go wrong — tiles
// that fail-stop or stall at a given cycle, probabilistic message
// drop/delay/corruption on the dynamic network, DRAM read errors on
// data-bank line fills — and an Injector turns the plan into a
// reproducible fault schedule: the injector's own PRNG is consumed in
// simulation-event order, which the discrete-event kernel makes
// deterministic, so the same seed produces the same fault schedule
// bit-for-bit on every run.
//
// The injector is a passive oracle: the simulator and tile kernels ask
// it questions ("does this message survive?", "has this tile failed?")
// at well-defined points, and it answers and counts. When no plan is
// installed the machine contains no fault code path at all, so the
// zero-fault configuration is bit-identical to a build without this
// package.
package fault

// TileFail is a permanent fail-stop: from the given cycle on, the tile
// neither processes nor emits messages (messages addressed to it are
// silently consumed).
type TileFail struct {
	Tile  int
	Cycle uint64
}

// TileStall is a transient fault: the first time the tile is scheduled
// at or after Cycle it loses Dur cycles, then resumes normally.
type TileStall struct {
	Tile  int
	Cycle uint64
	Dur   uint64
}

// Plan is a complete, serializable fault schedule. Probabilities are
// per-event (per dynamic-network message, per DRAM line fill); explicit
// tile faults fire exactly once at their cycle.
type Plan struct {
	Seed uint64

	Fails  []TileFail
	Stalls []TileStall

	// Per-message probabilities on the dynamic network.
	DropProb    float64
	DelayProb   float64
	DelayCycles uint64 // extra latency added to a delayed message
	CorruptProb float64

	// Per-line-fill probability of a DRAM read error on a data bank
	// (modeled as a detected ECC error: the fill is retried, costing an
	// extra DRAM round trip).
	DRAMProb float64
}

// Empty reports whether the plan injects nothing (it is then safe to
// run without an injector at all).
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Fails) == 0 && len(p.Stalls) == 0 &&
		p.DropProb == 0 && p.DelayProb == 0 && p.CorruptProb == 0 && p.DRAMProb == 0)
}

// WithoutFails returns a copy of the plan with the fail-stop clauses
// for the given tiles removed. Rollback recovery re-executes with the
// already-dead tiles excluded from the placement entirely, so their
// fail clauses must not re-fire (and re-count) on the next attempt.
func (p *Plan) WithoutFails(tiles []int) *Plan {
	if p == nil {
		return nil
	}
	dead := make(map[int]bool, len(tiles))
	for _, t := range tiles {
		dead[t] = true
	}
	q := *p
	q.Fails = nil
	for _, f := range p.Fails {
		if !dead[f.Tile] {
			q.Fails = append(q.Fails, f)
		}
	}
	return &q
}

// Kind identifies an injected fault class, for the Observe hook and the
// replay journal.
type Kind uint8

const (
	KindDrop Kind = iota + 1
	KindDelay
	KindCorrupt
	KindStall
	KindFail
	KindDRAM
)

// Verdict is the injector's ruling on one dynamic-network message.
type Verdict struct {
	Drop    bool
	Corrupt bool
	Delay   uint64
}

// Counts tallies the faults actually injected during a run.
type Counts struct {
	Drops       uint64
	Delays      uint64
	Corruptions uint64
	Stalls      uint64
	Fails       uint64
	DRAMErrors  uint64
}

// Total is the total number of injected faults of all kinds.
func (c Counts) Total() uint64 {
	return c.Drops + c.Delays + c.Corruptions + c.Stalls + c.Fails + c.DRAMErrors
}

// Injector evaluates a Plan during a run. It is not safe for
// concurrent use; the discrete-event kernel guarantees the single
// caller the determinism argument needs.
type Injector struct {
	plan   Plan
	rng    uint64
	counts Counts

	failAt map[int]uint64 // tile → fail-stop cycle
	failed map[int]bool   // tile → fail already observed
	stalls map[int][]TileStall

	// Observe, when non-nil, is called once per injected fault with the
	// fault class, the tile it hit (the sending tile for message faults)
	// and the virtual cycle. The record-replay journal hangs off this
	// hook; it must not perturb simulation state.
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
		plan:   *p,
		rng:    splitmix(p.Seed ^ 0x9e3779b97f4a7c15),
		failAt: map[int]uint64{},
		failed: map[int]bool{},
		stalls: map[int][]TileStall{},
	}
	if in.rng == 0 {
		in.rng = 1
	}
	for _, f := range p.Fails {
		in.failAt[f.Tile] = f.Cycle
	}
	for _, s := range p.Stalls {
		in.stalls[s.Tile] = append(in.stalls[s.Tile], s)
	}
	return in
}

// splitmix is the splitmix64 output function, used to whiten the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next advances the xorshift64* PRNG.
func (in *Injector) next() uint64 {
	x := in.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rng = x
	return x * 0x2545f4914f6cdd1d
}

// chance draws one uniform variate and compares against p.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// OnMessage rules on one dynamic-network message from tile `from` to
// tile `to`. Exactly the per-message probabilities that are nonzero
// consume PRNG draws, in a fixed order, so disabling one fault class
// does not perturb another class's schedule.
func (in *Injector) OnMessage(from, to int, now uint64) Verdict {
	var v Verdict
	if in.plan.DropProb > 0 && in.chance(in.plan.DropProb) {
		in.counts.Drops++
		in.observe(KindDrop, from, now)
		v.Drop = true
		return v
	}
	if in.plan.CorruptProb > 0 && in.chance(in.plan.CorruptProb) {
		in.counts.Corruptions++
		in.observe(KindCorrupt, from, now)
		v.Corrupt = true
	}
	if in.plan.DelayProb > 0 && in.chance(in.plan.DelayProb) {
		in.counts.Delays++
		in.observe(KindDelay, from, now)
		v.Delay = in.plan.DelayCycles
	}
	return v
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

// StallTake returns (and consumes) the total pending stall duration for
// a tile at the given cycle: each planned stall fires once, the first
// time the tile asks at or after the stall's cycle.
func (in *Injector) StallTake(tile int, now uint64) uint64 {
	pend := in.stalls[tile]
	if len(pend) == 0 {
		return 0
	}
	var d uint64
	kept := pend[:0]
	for _, s := range pend {
		if now >= s.Cycle {
			d += s.Dur
			in.counts.Stalls++
			in.observe(KindStall, tile, now)
		} else {
			kept = append(kept, s)
		}
	}
	in.stalls[tile] = kept
	return d
}

// DRAMError rules on one DRAM line fill at a data bank.
func (in *Injector) DRAMError(tile int, now uint64) bool {
	if in.plan.DRAMProb > 0 && in.chance(in.plan.DRAMProb) {
		in.counts.DRAMErrors++
		in.observe(KindDRAM, tile, now)
		return true
	}
	return false
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}
