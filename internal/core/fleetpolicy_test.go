package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/raw"
)

// Fleet fault-tolerance battery (ISSUE: slot quarantine, guest retry
// with backoff, per-guest deadlines). The two load-bearing properties:
// the policy layer is provably inert when no fault plan and no
// deadline is configured (bit-identity with the policy-free
// scheduler), and under a fail-stop plan every guest reaches a
// deterministic terminal state — finished with its solo fingerprint,
// aborted, or deadline-exceeded — with byte-identical results and
// trace output across repeated runs.

// TestFleetSlotLayoutMatchesCarve: the public layout (the want == 0
// capacity scan) is the same carve RunFleet gets when it demands that
// many base-tier slots exactly.
func TestFleetSlotLayoutMatchesCarve(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {4, 2}, {6, 4}, {16, 16}} {
		p := raw.DefaultParams()
		p.Width, p.Height = dims[0], dims[1]
		layout, err := FleetSlotLayout(p)
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		slots, err := planFabric(p, nil, len(layout))
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		if len(layout) != len(slots) {
			t.Fatalf("%dx%d: layout has %d slots, carve has %d", dims[0], dims[1], len(layout), len(slots))
		}
		for si, pl := range slots {
			want := FleetSlot{
				Sys: pl.sys, L15: pl.l15, Slaves: pl.slaves,
				Manager: pl.manager, Exec: pl.exec, MMU: pl.mmu, Banks: pl.banks,
			}
			if !reflect.DeepEqual(layout[si], want) {
				t.Errorf("%dx%d slot %d: layout %+v, carve %+v", dims[0], dims[1], si, layout[si], want)
			}
		}
	}
}

// TestFleetPolicyKnobsAreInertWithoutFaults pins the compatibility
// contract: retry/backoff knobs change nothing on a fault-free,
// deadline-free run — the whole FleetResult is byte-identical to a
// default-policy run, queue handoffs included.
func TestFleetPolicyKnobsAreInertWithoutFaults(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	base, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{
		MaxAttempts: 7, RetryBackoff: 123_456, RetrySeed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, tuned) {
		t.Errorf("retry knobs perturbed a fault-free run:\nbase  %+v\ntuned %+v", base, tuned)
	}
}

// TestFleetSupervisorIsTimingNeutral: an unreachable deadline spawns
// the supervisor process but fires no event before the run ends; every
// guest's Result, the makespan, and the busy vector must match the
// supervisor-free run exactly (the supervisor only sleeps — it injects
// no messages and charges no tile time).
func TestFleetSupervisorIsTimingNeutral(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	base, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{Deadline: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Guests, dl.Guests) ||
		base.Makespan != dl.Makespan ||
		!reflect.DeepEqual(base.TileBusy, dl.TileBusy) {
		t.Errorf("supervisor perturbed a run whose deadline never fired")
	}
	if dl.Fleet.DeadlineTotal != 3 || dl.Fleet.DeadlineMet != 3 {
		t.Errorf("deadline accounting = %d/%d, want 3/3", dl.Fleet.DeadlineMet, dl.Fleet.DeadlineTotal)
	}
	if got := dl.Fleet.SLOAttainment(); got != 1 {
		t.Errorf("SLOAttainment = %v, want 1", got)
	}
}

// TestFleetChaosQuarantineRetry is the acceptance scenario: an
// oversubscribed 8×8 fleet (12 guests, 8 slots) under three fail-stop
// faults hitting a manager, a slave, and an exec tile. The run must
// complete with every guest terminal — finished with its solo
// fingerprint or aborted with a structured error — and two runs at the
// same seed must produce byte-identical FleetResults and trace output.
func TestFleetChaosQuarantineRetry(t *testing.T) {
	imgs := fleetImgs(t,
		"164.gzip", "181.mcf", "164.gzip", "181.mcf",
		"164.gzip", "181.mcf", "164.gzip", "181.mcf",
		"164.gzip", "181.mcf", "164.gzip", "164.gzip")
	p := raw.DefaultParams()
	p.Width, p.Height = 8, 8
	layout, err := FleetSlotLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 7, Fails: []fault.TileFail{
		{Tile: layout[1].Manager, Cycle: 500_000},
		{Tile: layout[3].Slaves[0], Cycle: 700_000},
		{Tile: layout[5].Exec, Cycle: 2_500_000},
	}}
	run := func() (*FleetResult, []byte) {
		cfg := fleetCfg(8, 8)
		cfg.Fault = plan
		cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
		fr, err := RunFleet(imgs, cfg, FleetConfig{RetrySeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return fr, buf.Bytes()
	}
	a, atrace := run()
	b, btrace := run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos run not deterministic across repeats")
	}
	if !bytes.Equal(atrace, btrace) {
		t.Errorf("trace output differs across repeats (%d vs %d bytes)", len(atrace), len(btrace))
	}

	solo := soloFingerprints(t, imgs)
	var finished, aborted int
	for gi, g := range a.Guests {
		switch g.Status {
		case GuestFinished:
			finished++
			if g.Result == nil {
				t.Fatalf("guest %d finished without a Result", gi)
			}
			if got, want := fingerprint(g.Result), solo[imgs[gi]]; got != want {
				t.Errorf("guest %d (attempt %d) fingerprint diverged from solo run\n got %+v\nwant %+v",
					gi, g.Attempts, got, want)
			}
			if g.Err != nil {
				t.Errorf("finished guest %d carries error %v", gi, g.Err)
			}
		case GuestAborted:
			aborted++
			var ae *AbortError
			if !errors.As(g.Err, &ae) {
				t.Errorf("aborted guest %d: Err = %v, want *AbortError", gi, g.Err)
			}
			if g.Result != nil {
				t.Errorf("aborted guest %d has a Result", gi)
			}
		default:
			t.Errorf("guest %d ended %v — not a terminal state for this plan", gi, g.Status)
		}
	}
	if got := a.Fleet.SlotsQuarantined; got != 3 {
		t.Errorf("SlotsQuarantined = %d, want 3", got)
	}
	if a.Fleet.GuestsFinished != uint64(finished) || a.Fleet.GuestsAborted != uint64(aborted) {
		t.Errorf("fleet counters (%d finished, %d aborted) disagree with statuses (%d, %d)",
			a.Fleet.GuestsFinished, a.Fleet.GuestsAborted, finished, aborted)
	}
	if a.Fleet.GuestsRetried == 0 {
		t.Error("three quarantines produced no retries")
	}
	if g := a.Fleet.Goodput(a.Makespan); g <= 0 {
		t.Errorf("goodput = %v, want > 0", g)
	}
}

// TestFleetDeadlineCancelsGuest: a guest that cannot finish by its
// deadline is cancelled mid-run through the vmSwitch machinery and
// reported with a structured DeadlineError; its sibling finishes
// normally and the SLO counters record the miss.
func TestFleetDeadlineCancelsGuest(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf")
	fr, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{
		Deadlines: []uint64{0, 2_000_000}, // mcf needs ~3.9M cycles
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := fr.Guests[0]; g.Status != GuestFinished || g.Result == nil {
		t.Errorf("guest 0 = %v (Result nil=%v), want finished", g.Status, g.Result == nil)
	}
	g := fr.Guests[1]
	if g.Status != GuestDeadlineExceeded || g.Result != nil {
		t.Fatalf("guest 1 = %v (Result nil=%v), want deadline-exceeded with nil Result",
			g.Status, g.Result == nil)
	}
	var de *DeadlineError
	if !errors.As(g.Err, &de) {
		t.Fatalf("guest 1 Err = %v, want *DeadlineError", g.Err)
	}
	if de.Guest != 1 || de.Deadline != 2_000_000 || !de.Running || de.Attempts != 1 {
		t.Errorf("DeadlineError = %+v, want guest 1, deadline 2000000, running, 1 attempt", de)
	}
	f := fr.Fleet
	if f.GuestsDeadlineExceeded != 1 || f.DeadlineTotal != 1 || f.DeadlineMet != 0 {
		t.Errorf("deadline counters = %+v, want 1 exceeded of 1 total, 0 met", f)
	}
	if got := f.SLOAttainment(); got != 0 {
		t.Errorf("SLOAttainment = %v, want 0", got)
	}
}

// TestFleetRetryWithRollback: with rollback recovery on, a quarantined
// guest's retry resumes from its latest checkpoint (not the image) and
// still converges to the solo fingerprint.
func TestFleetRetryWithRollback(t *testing.T) {
	imgs := fleetImgs(t, "181.mcf", "164.gzip")
	layout, err := FleetSlotLayout(raw.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FleetResult {
		cfg := fleetCfg(4, 4)
		cfg.Recovery = RecoverRollback
		cfg.Fault = &fault.Plan{Seed: 3, Fails: []fault.TileFail{
			{Tile: layout[0].Slaves[1], Cycle: 1_000_000},
		}}
		fr, err := RunFleet(imgs, cfg, FleetConfig{RetrySeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a := run()
	if !reflect.DeepEqual(a, run()) {
		t.Error("rollback-retry run not deterministic")
	}
	g := a.Guests[0]
	if g.Status != GuestFinished || g.Result == nil {
		t.Fatalf("guest 0 = %v, want finished after retry", g.Status)
	}
	if g.Attempts != 2 {
		t.Errorf("guest 0 ran %d attempts, want 2", g.Attempts)
	}
	if g.Result.M.Rollbacks != 1 {
		t.Errorf("guest 0 recorded %d rollbacks, want 1 (retry must restore, not restart)", g.Result.M.Rollbacks)
	}
	solo := soloFingerprints(t, imgs)
	if got, want := fingerprint(g.Result), solo[imgs[0]]; got != want {
		t.Errorf("restored guest diverged from solo run\n got %+v\nwant %+v", got, want)
	}
	if a.Fleet.GuestsRetried != 1 || a.Fleet.SlotsQuarantined != 1 {
		t.Errorf("fleet counters %+v, want 1 retry, 1 quarantine", a.Fleet)
	}
}

// TestFleetMaxAttemptsAbort: on a one-slot fabric whose only slot dies,
// the running guest exhausts MaxAttempts=1 and the queued guest is
// aborted with NoSlots — and the simulation still terminates cleanly.
func TestFleetMaxAttemptsAbort(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "164.gzip")
	layout, err := FleetSlotLayout(func() raw.Params {
		p := raw.DefaultParams()
		p.Width, p.Height = 4, 2
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(4, 2)
	cfg.Fault = &fault.Plan{Seed: 5, Fails: []fault.TileFail{
		{Tile: layout[0].Exec, Cycle: 300_000},
	}}
	fr, err := RunFleet(imgs, cfg, FleetConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	g0 := fr.Guests[0]
	var ae *AbortError
	if g0.Status != GuestAborted || !errors.As(g0.Err, &ae) {
		t.Fatalf("guest 0 = %v (%v), want aborted with *AbortError", g0.Status, g0.Err)
	}
	if ae.NoSlots || ae.Attempts != 1 {
		t.Errorf("guest 0 AbortError = %+v, want attempts-exhausted after 1", ae)
	}
	g1 := fr.Guests[1]
	if g1.Status != GuestAborted || !errors.As(g1.Err, &ae) {
		t.Fatalf("guest 1 = %v (%v), want aborted with *AbortError", g1.Status, g1.Err)
	}
	if !ae.NoSlots || g1.Attempts != 0 {
		t.Errorf("guest 1 AbortError = %+v (attempts %d), want no-slots abort of a never-admitted guest",
			ae, g1.Attempts)
	}
	if fr.Fleet.GuestsAborted != 2 || fr.Fleet.SlotsQuarantined != 1 || fr.Fleet.GuestsFinished != 0 {
		t.Errorf("fleet counters %+v, want 2 aborts, 1 quarantine, 0 finished", fr.Fleet)
	}
}

// FuzzQuarantineRecarve throws random fabrics and fail clauses at the
// fleet fault-plan validator: a clause aimed anywhere — off the fabric,
// at an uncarved tile, at cycle 0 — must be accepted or rejected with
// an error, never panicked on.
func FuzzQuarantineRecarve(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint16(0b101), int16(20), uint32(1000))
	f.Add(uint8(4), uint8(4), uint16(3), int16(-1), uint32(0))
	f.Add(uint8(16), uint8(16), uint16(0xffff), int16(255), uint32(1<<20))
	f.Add(uint8(2), uint8(4), uint16(1), int16(7), uint32(500))
	f.Fuzz(func(t *testing.T, w, h uint8, maxSlots uint16, failTile int16, failCycle uint32) {
		p := raw.DefaultParams()
		p.Width, p.Height = int(w), int(h)
		slots, err := planFabric(p, nil, 0)
		if err != nil {
			return // fabric fits no slot; nothing to aim at
		}
		// A MaxSlots cap leaves the tail of the fabric uncarved.
		if n := int(maxSlots); n > 0 && n < len(slots) {
			slots = slots[:n]
		}
		plan := &fault.Plan{Seed: 1, Fails: []fault.TileFail{
			{Tile: int(failTile), Cycle: uint64(failCycle)},
		}}
		err = validateFleetFaultPlan(plan, slots, p)
		_, inSlot := slotIndexOf(slots)[int(failTile)]
		if valid := inSlot && failCycle > 0; valid != (err == nil) {
			t.Fatalf("%dx%d, %d slots: fail:%d@%d valid=%v, validator says %v",
				w, h, len(slots), failTile, failCycle, valid, err)
		}
	})
}
