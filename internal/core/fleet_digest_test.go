package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/translate"
)

// Fleet schedule golden. The invariance, replay and chaos batteries
// compare runs to each other or to solo fingerprints; none pins the
// cycle-exact schedule — admission cycles, makespan, the per-tile busy
// vector, retry and rollback timing — across commits. This one does:
// every configuration below is dumped whole (FleetResult, every
// guest's metrics.Set and state hash, and the trace JSON where traced)
// and the digest compared with a pinned value. A change that claims to
// leave fleet scheduling alone must leave these untouched; one that
// moves them says why.

// writeFleetResult dumps fr field by field. Pointers are followed by
// hand (GuestResult, Result) so no address reaches the digest, and the
// fleet counter set is named field by field so the digest depends on
// the counters' values, not on the set's shape.
func writeFleetResult(w io.Writer, fr *FleetResult) {
	fmt.Fprintf(w, "slots=%d makespan=%d util=%v busy=%v\n", fr.Slots, fr.Makespan, fr.Utilization, fr.TileBusy)
	f := fr.Fleet
	fmt.Fprintf(w, "fleet fin=%d retry=%d abort=%d dl=%d quar=%d met=%d/%d goodput=%d\n",
		f.GuestsFinished, f.GuestsRetried, f.GuestsAborted, f.GuestsDeadlineExceeded,
		f.SlotsQuarantined, f.DeadlineMet, f.DeadlineTotal, f.GoodputInsts)
	for gi, g := range fr.Guests {
		fmt.Fprintf(w, "g%d status=%v attempts=%d slot=%d admitted=%d finished=%d err=%v\n",
			gi, g.Status, g.Attempts, g.Slot, g.Admitted, g.Finished, g.Err)
		if r := g.Result; r != nil {
			fmt.Fprintf(w, "  cycles=%d exit=%d hash=%#x stdout=%q busy=%v\n  %+v\n",
				r.Cycles, r.ExitCode, r.StateHash, r.Stdout, r.TileBusy, r.M)
		}
	}
}

type fleetGolden struct {
	name   string
	w, h   int
	guests []string
	traced bool
	// cfg and fc adjust the fleetCfg(w, h) / zero FleetConfig defaults;
	// layout is the base-tier carve of the w×h fabric, for aiming faults.
	cfg  func(cfg *Config, layout []FleetSlot)
	fc   func(t *testing.T, g *fleetGolden) FleetConfig
	want string
}

// configs builds the fleet's Config and FleetConfig, untraced.
func (g *fleetGolden) configs(t *testing.T) (Config, FleetConfig) {
	t.Helper()
	cfg := fleetCfg(g.w, g.h)
	layout, err := FleetSlotLayout(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg != nil {
		g.cfg(&cfg, layout)
	}
	var fc FleetConfig
	if g.fc != nil {
		fc = g.fc(t, g)
	}
	return cfg, fc
}

func (g *fleetGolden) run(t *testing.T, memo *translate.Memo) string {
	t.Helper()
	cfg, fc := g.configs(t)
	if g.traced {
		cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
	}
	cfg.Memo = memo
	fr, err := RunFleet(fleetImgs(t, g.guests...), cfg, fc)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	h := fnv.New64a()
	writeFleetResult(h, fr)
	n := 0
	if g.traced {
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		n = buf.Len()
	}
	return fmt.Sprintf("%d:%d:%016x", fr.Makespan, n, h.Sum64())
}

func fails(tf ...fault.TileFail) *fault.Plan { return &fault.Plan{Seed: 7, Fails: tf} }

var (
	four  = []string{"164.gzip", "181.mcf", "164.gzip", "181.mcf"}
	five  = []string{"164.gzip", "181.mcf", "164.gzip", "181.mcf", "164.gzip"}
	dozen = []string{
		"164.gzip", "181.mcf", "164.gzip", "181.mcf", "164.gzip", "181.mcf",
		"164.gzip", "181.mcf", "164.gzip", "181.mcf", "164.gzip", "164.gzip"}
)

var fleetGoldens = []fleetGolden{
	{name: "8x8/free", w: 8, h: 8, guests: four,
		want: "3900509:0:3f41576c73864b6c"},
	{name: "4x4/oversub", w: 4, h: 4, guests: five,
		want: "6599125:0:8d83755edc5412ae"},
	{name: "8x8/planner/cap3", w: 8, h: 8, guests: []string{"164.gzip", "181.mcf", "176.gcc", "164.gzip", "181.mcf"},
		fc: func(t *testing.T, g *fleetGolden) FleetConfig {
			return FleetConfig{MaxSlots: 3, Profiles: profilesFor(t, g.guests...)}
		},
		want: "15976298:0:dc21d99425f4e575"},
	{name: "8x8/traced", w: 8, h: 8, guests: five[:3], traced: true,
		want: "3900509:6665814:b5958fa88bb332e2"},
	{name: "4x4/tier0", w: 4, h: 4, guests: five[:3],
		cfg: func(cfg *Config, _ []FleetSlot) {
			cfg.Speculative, cfg.Tier0, cfg.TierUpThreshold = false, true, 2_000
		},
		want: "5360525:0:5a4cf75124029325"},
	{name: "4x4/deadlines", w: 4, h: 4, guests: []string{"164.gzip", "181.mcf", "164.gzip", "181.mcf"},
		// Guest 1 is cancelled mid-run, guest 3 while still queued.
		fc: func(*testing.T, *fleetGolden) FleetConfig {
			return FleetConfig{Deadline: 1 << 40, Deadlines: []uint64{0, 2_000_000, 0, 1_000_000}}
		},
		want: "2698092:0:d20325a1b5f7cf65"},
	{name: "8x8/chaos5/traced", w: 8, h: 8, guests: dozen, traced: true,
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Fault = fails(
				fault.TileFail{Tile: l[1].Manager, Cycle: 500_000},
				fault.TileFail{Tile: l[3].Slaves[0], Cycle: 700_000},
				fault.TileFail{Tile: l[6].Banks[0], Cycle: 700_000},
				fault.TileFail{Tile: l[0].MMU, Cycle: 1_900_000},
				fault.TileFail{Tile: l[5].Exec, Cycle: 2_500_000})
		},
		fc:   func(*testing.T, *fleetGolden) FleetConfig { return FleetConfig{RetrySeed: 7} },
		want: "11702715:38460680:5024f5bd2dc944c8"},
	{name: "8x8/cap4/chaos/retries", w: 8, h: 8, guests: dozen[:7],
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Fault = fails(
				fault.TileFail{Tile: l[0].Slaves[1], Cycle: 400_000},
				fault.TileFail{Tile: l[2].L15[0], Cycle: 1_200_000},
				fault.TileFail{Tile: l[3].Sys, Cycle: 3_000_000})
		},
		fc: func(*testing.T, *fleetGolden) FleetConfig {
			return FleetConfig{MaxSlots: 4, MaxAttempts: 2, RetryBackoff: 200_000, RetrySeed: 99}
		},
		want: "17099947:0:58d9ffadb38b27f1"},
	{name: "4x4/rollback/slave", w: 4, h: 4, guests: []string{"181.mcf", "164.gzip"},
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Recovery = RecoverRollback
			cfg.Fault = fails(fault.TileFail{Tile: l[0].Slaves[1], Cycle: 1_000_000})
		},
		fc:   func(*testing.T, *fleetGolden) FleetConfig { return FleetConfig{RetrySeed: 3} },
		want: "4350624:0:a2535a69ba849532"},
	{name: "8x8/rollback/manager/queued", w: 8, h: 8, guests: five,
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Recovery = RecoverRollback
			cfg.Fault = fails(fault.TileFail{Tile: l[1].Manager, Cycle: 1_500_000})
		},
		fc: func(*testing.T, *fleetGolden) FleetConfig {
			return FleetConfig{MaxSlots: 3, RetrySeed: 11, RetryBackoff: 500_000}
		},
		want: "5249817:0:c55e466a6ba0e5c3"},
	{name: "8x8/rollback/interval/bank+exec", w: 8, h: 8, guests: []string{"181.mcf", "176.gcc", "164.gzip"},
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Recovery = RecoverRollback
			cfg.CheckpointInterval = 200_000
			cfg.Fault = fails(
				fault.TileFail{Tile: l[0].Banks[0], Cycle: 900_000},
				fault.TileFail{Tile: l[1].Exec, Cycle: 2_000_000})
		},
		fc:   func(*testing.T, *fleetGolden) FleetConfig { return FleetConfig{RetrySeed: 5} },
		want: "18491137:0:9ef4fd7dda6f19bf"},
	{name: "8x8/stall+fail", w: 8, h: 8, guests: four,
		cfg: func(cfg *Config, l []FleetSlot) {
			cfg.Fault = &fault.Plan{Seed: 13,
				Stalls: []fault.TileStall{
					{Tile: l[0].Exec, Cycle: 300_000, Dur: 40_000},
					{Tile: l[2].Manager, Cycle: 600_000, Dur: 25_000}},
				Fails: []fault.TileFail{{Tile: l[1].Slaves[0], Cycle: 800_000}}}
		},
		fc:   func(*testing.T, *fleetGolden) FleetConfig { return FleetConfig{RetrySeed: 13} },
		want: "5274817:0:324899f6b9a7aabd"},
	{name: "8x8/planner/fail", w: 8, h: 8, guests: four,
		// The planner grows slots on an undersubscribed fabric, so the
		// fault is aimed by tile id, not through the base-tier layout.
		cfg: func(cfg *Config, _ []FleetSlot) {
			cfg.Fault = fails(fault.TileFail{Tile: 9, Cycle: 600_000})
		},
		fc: func(_ *testing.T, g *fleetGolden) FleetConfig {
			return FleetConfig{Profiles: make([]GuestProfile, len(g.guests)), RetrySeed: 2}
		},
		want: "2840562:0:36587577bb9be53d"},
}

func TestFleetScheduleDigest(t *testing.T) {
	// Each fleet twice: without a translation memo, and against one
	// filled beforehand (see TestRunFaultDigest).
	memo := prefilledMemo(t, "164.gzip", "181.mcf")
	for i := range fleetGoldens {
		g := &fleetGoldens[i]
		if got := g.run(t, nil); got != g.want {
			t.Errorf("%s: digest %q, golden %q", g.name, got, g.want)
		}
		if got := g.run(t, memo); got != g.want {
			t.Errorf("%s: digest %q with a pre-filled memo, golden %q", g.name, got, g.want)
		}
	}
}
