package core

import (
	"bytes"
	"reflect"
	"testing"

	"tilevm/internal/translate"
)

// runFleetWorkers runs the same fleet at a given worker count and
// returns the full result.
func runFleetWorkers(t *testing.T, w, h, workers int, fc FleetConfig, names ...string) *FleetResult {
	t.Helper()
	cfg := fleetCfg(w, h)
	cfg.SimWorkers = workers
	r, err := RunFleet(fleetImgs(t, names...), cfg, fc)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r
}

// TestFleetParallelWorkersInvariance is the tentpole gate: the sharded
// engine must produce a byte-identical FleetResult — per-guest cycles,
// exit codes, state hashes, per-tile busy counters, utilization, fleet
// counters — at every worker count. reflect.DeepEqual over the whole
// result covers all of it at once.
func TestFleetParallelWorkersInvariance(t *testing.T) {
	names := []string{"164.gzip", "181.mcf", "164.gzip", "181.mcf"}
	base := runFleetWorkers(t, 8, 8, 1, FleetConfig{}, names...)
	for _, workers := range []int{2, 4, 8} {
		got := runFleetWorkers(t, 8, 8, workers, FleetConfig{}, names...)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: fleet result differs from serial run\nserial:   %+v\nparallel: %+v",
				workers, base, got)
		}
	}
}

// TestFleetParallelOversubscribed exercises the admission queue under
// sharding: more guests than slots, so guest exits trigger fenced
// re-admissions whose global ordering decides which guest lands on
// which slot. Any fence-ordering bug shows up as a different
// slot/timing assignment.
func TestFleetParallelOversubscribed(t *testing.T) {
	names := []string{"164.gzip", "181.mcf", "164.gzip", "181.mcf", "164.gzip"}
	fc := FleetConfig{MaxSlots: 2}
	base := runFleetWorkers(t, 8, 8, 1, fc, names...)
	if base.Fleet.GuestsFinished != uint64(len(names)) {
		t.Fatalf("serial run finished %d of %d guests", base.Fleet.GuestsFinished, len(names))
	}
	for _, workers := range []int{2, 4, 8} {
		got := runFleetWorkers(t, 8, 8, workers, fc, names...)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: oversubscribed fleet result differs from serial run", workers)
		}
	}
}

// TestFleetParallelSameImage runs one image in two slots on two shards:
// two engines, each with a translator and a guest memory of its own,
// translating the same addresses of the same guest.Image at the same
// time on two goroutines. A translator's scratch belongs to its engine
// and an engine to one shard, so under -race (make racepar) this is what
// shows that nothing of the translation pipeline is shared between
// shards; the results must also be the serial loop's.
//
// What the two shards may share is a translation memo (Config.Memo), and
// through it every block it hands out: the memo legs run the same fleet
// against one memo, first empty — both shards miss on the same blocks
// and publish at once — then full, so both execute, cache and chain the
// very same Results. A published Result is read-only; the detector is
// what says no code cache, promotion or fill ever wrote through one.
func TestFleetParallelSameImage(t *testing.T) {
	names := []string{"164.gzip", "164.gzip"}
	fc := FleetConfig{MaxSlots: 2}
	base := runFleetWorkers(t, 8, 8, 1, fc, names...)
	got := runFleetWorkers(t, 8, 8, 2, fc, names...)
	if !reflect.DeepEqual(base, got) {
		t.Errorf("two shards: fleet result differs from serial run\nserial:   %+v\nparallel: %+v", base, got)
	}
	if n := base.Fleet.GuestsFinished; n != 2 {
		t.Fatalf("%d of 2 guests finished", n)
	}

	for _, tier0 := range []bool{false, true} {
		cfg := fleetCfg(8, 8)
		cfg.SimWorkers = 2
		if tier0 {
			// Promotion replaces a block in the manager's L2 and flushes
			// the L1 that chained it: the writers closest to a Result.
			cfg.Tier0, cfg.TierUpThreshold = true, 2_000
		}
		want, err := RunFleet(fleetImgs(t, names...), cfg, fc)
		if err != nil {
			t.Fatalf("tier0=%v: %v", tier0, err)
		}
		cfg.Memo = translate.NewMemo()
		for _, leg := range []string{"filling", "full"} {
			r, err := RunFleet(fleetImgs(t, names...), cfg, fc)
			if err != nil {
				t.Fatalf("tier0=%v, %s memo: %v", tier0, leg, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("tier0=%v, two shards, %s memo: fleet result differs\nwant: %+v\n got: %+v", tier0, leg, want, r)
			}
		}
		if st := cfg.Memo.Stats(); st.Hits == 0 || st.Bypassed != 0 {
			t.Errorf("tier0=%v: memo stats %+v: want hits and nothing bypassed", tier0, st)
		}
	}
}

// TestFleetParallelMatchesSoloHashes ties the parallel engine back to
// the per-guest architectural contract: each guest's final state hash
// under a sharded fleet equals its solo single-VM hash.
func TestFleetParallelMatchesSoloHashes(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	solo := soloFingerprints(t, imgs)
	cfg := fleetCfg(8, 8)
	cfg.SimWorkers = 4
	r, err := RunFleet(imgs, cfg, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkFleetInvariance(t, "workers=4", r, imgs, solo)
}

// TestFleetParallelFallsBackWhenCoupled pins the gating contract:
// configurations that couple slots through shared host state must run
// the serial loop even with SimWorkers set, and still produce the
// serial result. Two of the four couplings are driven here: an
// unreachable Deadline (a policy event, so the supervisor is spawned)
// and a Tracer, whose output must also match byte for byte — a sharded
// run would interleave the shared sink's events by host timing.
func TestFleetParallelFallsBackWhenCoupled(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf")
	run := func(workers int, traced bool, fc FleetConfig) (*FleetResult, []byte) {
		cfg := fleetCfg(8, 8)
		cfg.SimWorkers = workers
		var buf bytes.Buffer
		if traced {
			cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
		}
		fr, err := RunFleet(imgs, cfg, fc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if traced {
			if err := cfg.Tracer.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return fr, buf.Bytes()
	}
	for _, tc := range []struct {
		name   string
		traced bool
		fc     FleetConfig
	}{
		{"deadline", false, FleetConfig{Deadline: 1 << 40}},
		{"tracer", true, FleetConfig{}},
	} {
		base, baseTrace := run(1, tc.traced, tc.fc)
		got, gotTrace := run(8, tc.traced, tc.fc)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: fleet with SimWorkers=8 differs from serial run", tc.name)
		}
		if !bytes.Equal(baseTrace, gotTrace) {
			t.Errorf("%s: trace with SimWorkers=8 differs from serial run (%d vs %d bytes)",
				tc.name, len(gotTrace), len(baseTrace))
		}
	}
}
