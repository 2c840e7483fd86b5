package core

import (
	"reflect"
	"testing"

	"tilevm/internal/guest"
)

// Invariance battery (ISSUE: the headline test work). A guest's
// architectural outcome must not depend on how it was hosted: solo on
// the default fabric, in a fleet of any size, with or without tracing,
// and regardless of which slot it landed in. Timing-dependent counters (cycles, cache/TLB misses in
// the shared memory system, translation counts, speculation waste)
// legitimately differ across hostings; everything the guest can
// architecturally observe may not.

// archFingerprint is the timing-independent slice of a guest Result.
// Every field is determined solely by the guest's own instruction
// stream: the exec tile's dispatch loop, its private code/data caches,
// and the syscall kernel (which runs on a logical clock).
type archFingerprint struct {
	StateHash                   uint64
	ExitCode                    int32
	Stdout                      string
	HostInsts                   uint64
	BlockDispatches             uint64
	Syscalls, Assists           uint64
	L1CLookups, L1CHits         uint64
	L1CFlushes, Chains          uint64
	DL1Accesses, DL1Misses      uint64
	SMCInvalidations, L2CStores uint64
}

func fingerprint(r *Result) archFingerprint {
	return archFingerprint{
		StateHash:        r.StateHash,
		ExitCode:         r.ExitCode,
		Stdout:           r.Stdout,
		HostInsts:        r.M.HostInsts,
		BlockDispatches:  r.M.BlockDispatches,
		Syscalls:         r.M.Syscalls,
		Assists:          r.M.Assists,
		L1CLookups:       r.M.L1CLookups,
		L1CHits:          r.M.L1CHits,
		L1CFlushes:       r.M.L1CFlushes,
		Chains:           r.M.Chains,
		DL1Accesses:      r.M.DL1Accesses,
		DL1Misses:        r.M.DL1Misses,
		SMCInvalidations: r.M.SMCInvalidations,
		L2CStores:        r.M.L2CStores,
	}
}

// soloFingerprints runs each distinct image alone on the default 4×4
// fabric and returns its fingerprint, keyed by image pointer.
func soloFingerprints(t *testing.T, imgs []*guest.Image) map[*guest.Image]archFingerprint {
	t.Helper()
	out := map[*guest.Image]archFingerprint{}
	for _, img := range imgs {
		if _, done := out[img]; done {
			continue
		}
		res, err := Run(img, fleetCfg(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		out[img] = fingerprint(res)
	}
	return out
}

func checkFleetInvariance(t *testing.T, label string, fr *FleetResult, imgs []*guest.Image, solo map[*guest.Image]archFingerprint) {
	t.Helper()
	for gi, g := range fr.Guests {
		if g.Result == nil {
			t.Errorf("%s: guest %d never ran", label, gi)
			continue
		}
		if got, want := fingerprint(g.Result), solo[imgs[gi]]; got != want {
			t.Errorf("%s: guest %d fingerprint diverged from solo run\n got %+v\nwant %+v",
				label, gi, got, want)
		}
	}
}

// TestFleetInvarianceAcrossHostings is the battery core: the same four
// guests, hosted four different ways, always produce their solo
// fingerprints — including hostings that force queueing (more guests
// than slots) and hence mid-run slot handoffs.
func TestFleetInvarianceAcrossHostings(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip", "181.mcf")
	solo := soloFingerprints(t, imgs)

	hostings := []struct {
		name string
		w, h int
		fc   FleetConfig
	}{
		{"8x8", 8, 8, FleetConfig{}},
		{"8x8/2slots", 8, 8, FleetConfig{MaxSlots: 2}},
		{"4x4", 4, 4, FleetConfig{}},
		{"4x2/serial", 4, 2, FleetConfig{}},
	}
	for _, hc := range hostings {
		fr, err := RunFleet(imgs, fleetCfg(hc.w, hc.h), hc.fc)
		if err != nil {
			t.Fatalf("%s: %v", hc.name, err)
		}
		checkFleetInvariance(t, hc.name, fr, imgs, solo)
	}
}

// TestFleetInvarianceUnderSlotPermutation permutes the admission order
// (and hence the slot assignment) of four guests on a grid with four
// slots: each guest keeps its solo fingerprint no matter which slot it
// lands in or which neighbors it shares the fabric with.
func TestFleetInvarianceUnderSlotPermutation(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip", "181.mcf")
	solo := soloFingerprints(t, imgs)

	perms := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 3, 0, 2},
		{2, 0, 3, 1},
	}
	for _, perm := range perms {
		ordered := make([]*guest.Image, len(perm))
		for pos, gi := range perm {
			ordered[pos] = imgs[gi]
		}
		fr, err := RunFleet(ordered, fleetCfg(8, 8), FleetConfig{})
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		checkFleetInvariance(t, "perm", fr, ordered, solo)
		for pos, g := range fr.Guests {
			if g.Slot != pos {
				t.Errorf("perm %v: guest at position %d ran in slot %d, want %d", perm, pos, g.Slot, pos)
			}
		}
	}
}

// TestFleetTracingIsTimingNeutral pins a stronger property than the
// fingerprint: the tracer charges zero virtual cycles, so a traced
// fleet run is byte-identical to the untraced run — every guest's full
// Result (cycles and all shared-fabric counters included), the
// makespan, and the per-tile busy vector.
func TestFleetTracingIsTimingNeutral(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	run := func(traced bool) *FleetResult {
		cfg := fleetCfg(8, 8)
		if traced {
			cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
		}
		fr, err := RunFleet(imgs, cfg, FleetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	plain, traced := run(false), run(true)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing perturbed the fleet run:\nuntraced %+v\ntraced   %+v", plain, traced)
	}
}
