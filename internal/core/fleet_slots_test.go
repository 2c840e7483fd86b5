package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/sim"
)

// Which loop runs a fleet is not a setting: independent slots are
// dispatched a slot at a time, coupled ones interleaved in one heap
// (fleet.go). A fault plan is what couples them. One whose only
// clause stalls a carved tile at a cycle no guest reaches changes
// nothing else — a fleet plan draws nothing from the injector's
// generator — so it is how these tests get the same fleet onto the
// interleaved loop.

// interleave gives cfg that fault plan.
func interleave(t *testing.T, cfg *Config) {
	t.Helper()
	layout, err := FleetSlotLayout(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &fault.Plan{Stalls: []fault.TileStall{{Tile: layout[0].Exec, Cycle: math.MaxUint64, Dur: 1}}}
}

// fleetOnLoop runs a fleet on one of the two serial loops and returns
// everything RunFleet returned, dumped field by field, with the run's
// error and the event kernel's counters.
func fleetOnLoop(t *testing.T, interleaved bool, imgs []*guest.Image, cfg Config, fc FleetConfig) (string, error, sim.Stats) {
	t.Helper()
	if interleaved {
		interleave(t, &cfg)
	}
	cfg.Interrupt = NewInterruptHandle()
	fr, err := RunFleet(imgs, cfg, fc)
	if fr == nil {
		t.Fatalf("interleaved=%v: no result: %v", interleaved, err)
	}
	var buf bytes.Buffer
	writeFleetResult(&buf, fr)
	return buf.String(), err, cfg.Interrupt.KernelStats()
}

// TestFleetSlotAtATimeEquality: every fault-free fleet of the schedule
// golden, the one with deadlines included, tilebench's fleet_mix and a
// queued admission decided by a same-cycle tie — guests 0 and 1 leave
// slots 0 and 1 in one cycle with a long and a short guest waiting —
// give the same FleetResult on both loops, down to the last counter of
// every guest and the per-tile busy vector, from the same number of
// dispatches. The traced fleet also writes the same trace JSON and
// sampler CSV.
func TestFleetSlotAtATimeEquality(t *testing.T) {
	cases := []fleetGolden{
		{name: "8x8/fleet_mix", w: 8, h: 8, guests: fleetMix},
		{name: "8x8/cap2/same-cycle-exits", w: 8, h: 8, guests: []string{"164.gzip", "164.gzip", "181.mcf", "164.gzip", "181.mcf"},
			fc: func(*testing.T, *fleetGolden) FleetConfig { return FleetConfig{MaxSlots: 2} }},
	}
	for _, g := range fleetGoldens {
		switch g.name {
		case "8x8/free", "4x4/oversub", "8x8/planner/cap3", "8x8/traced", "4x4/nospec", "4x4/deadlines":
			cases = append(cases, g)
		}
	}
	if len(cases) != 8 {
		t.Fatalf("%d cases: a schedule golden was renamed", len(cases))
	}
	for i := range cases {
		g := &cases[i]
		cfg, fc := g.configs(t)
		imgs := fleetImgs(t, g.guests...)
		run := func(interleaved bool) (string, sim.Stats) {
			cfg := cfg
			if g.traced {
				cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
			}
			out, err, st := fleetOnLoop(t, interleaved, imgs, cfg, fc)
			if err != nil {
				t.Fatalf("%s interleaved=%v: %v", g.name, interleaved, err)
			}
			if g.traced {
				var j, c bytes.Buffer
				if err := cfg.Tracer.WriteJSON(&j); err != nil {
					t.Fatal(err)
				}
				if err := cfg.Tracer.WriteCSV(&c); err != nil {
					t.Fatal(err)
				}
				for _, b := range [][]byte{j.Bytes(), c.Bytes()} {
					h := fnv.New64a()
					h.Write(b)
					out += fmt.Sprintf("trace output: %d bytes, fnv %016x\n", len(b), h.Sum64())
				}
			}
			return out, st
		}
		want, wantSt := run(true)
		got, gotSt := run(false)
		if got != want {
			t.Errorf("%s: the two loops disagree\nslot-at-a-time:\n%s\ninterleaved:\n%s", g.name, got, want)
		}
		if gotSt.Dispatches != wantSt.Dispatches || gotSt.Switches >= wantSt.Switches {
			t.Errorf("%s: slot-at-a-time %+v, interleaved %+v: want the same dispatches with fewer switches", g.name, gotSt, wantSt)
		}
	}
}

// TestFleetSlotAtATimeMaxCycles: the watchdog stops both loops with
// every event up to it dispatched and none beyond, so the error, the
// guests that had finished and everything recorded of the others agree.
func TestFleetSlotAtATimeMaxCycles(t *testing.T) {
	imgs := fleetImgs(t, five...)
	cfg := fleetCfg(8, 8)
	cfg.MaxCycles = 2_000_000 // the gzips are out by 1.35M, no mcf is
	fc := FleetConfig{MaxSlots: 3}
	want, wantErr, _ := fleetOnLoop(t, true, imgs, cfg, fc)
	got, gotErr, _ := fleetOnLoop(t, false, imgs, cfg, fc)
	if wantErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("slot-at-a-time error %v, interleaved %v", gotErr, wantErr)
	}
	if got != want {
		t.Errorf("the two loops disagree at the watchdog\nslot-at-a-time:\n%s\ninterleaved:\n%s", got, want)
	}
	if !bytes.Contains([]byte(want), []byte("fleet fin=2 ")) {
		t.Errorf("want two finished guests at the watchdog:\n%s", want)
	}
}

// TestFleetSlotAtATimeExitAwaitsFence pins the one thing a run cut short
// — by a host interrupt, or as here by a tile-kernel panic, which can be
// placed exactly — reports differently on the two loops. Slot 0's gzip
// reaches its exit at cycle 1,348,784; slot 1's gcc panics at cycle
// 3,091,750. Interleaved, the exit was dispatched long before the panic
// and guest 0 is finished. A slot at a time, slot 0 ran first and its
// execution tile is parked in the exit's Fence, which is granted only
// once slot 1 has nothing earlier — and slot 1 never gets there: guest 0
// has done all its work but is not reported finished, and a caller that
// re-runs unfinished guests (tilevmd) re-runs it. The victim is the same.
func TestFleetSlotAtATimeExitAwaitsFence(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "176.gcc")
	for _, interleaved := range []bool{true, false} {
		cfg := fleetCfg(8, 8)
		cfg.PanicAtDispatch = 3000 // gzip exits after 270 block dispatches
		if interleaved {
			interleave(t, &cfg)
		}
		fr, err := RunFleet(imgs, cfg, FleetConfig{})
		var ie *InternalError
		if !errors.As(err, &ie) || ie.Guest != 1 || ie.Slot != 1 || ie.Cycle != 3_091_750 {
			t.Fatalf("interleaved=%v: error %v, want guest 1's InternalError at cycle 3091750", interleaved, err)
		}
		want := GuestPending
		if interleaved {
			want = GuestFinished
		}
		if g := fr.Guests[0]; g.Status != want || fr.Guests[1].Status != GuestInternalError {
			t.Errorf("interleaved=%v: guest 0 %v, guest 1 %v, want %v and internal-error", interleaved, g.Status, fr.Guests[1].Status, want)
		}
	}
}
