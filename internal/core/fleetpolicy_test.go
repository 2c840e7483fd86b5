package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
)

// Fleet fault-tolerance battery (slot quarantine, guest retry,
// per-guest deadlines). The two load-bearing properties:
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
// contract: the retry knob changes nothing on a fault-free,
// deadline-free run — the whole FleetResult is byte-identical to a
// default-policy run, queue handoffs included.
func TestFleetPolicyKnobsAreInertWithoutFaults(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	base, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{MaxAttempts: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, tuned) {
		t.Errorf("retry knobs perturbed a fault-free run:\nbase  %+v\ntuned %+v", base, tuned)
	}
}

// TestFleetSupervisorIsTimingNeutral: a deadline is its guest's exec
// tile's to take, so an unreachable one spawns no supervisor, couples no
// slots and costs one comparison per dispatch and chained jump. The
// FleetResult equals the deadline-free run's but for the deadline
// counters, and the event kernel dispatches and switches exactly as
// often.
func TestFleetSupervisorIsTimingNeutral(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	run := func(fc FleetConfig) (*FleetResult, sim.Stats) {
		cfg := fleetCfg(4, 4)
		cfg.Interrupt = NewInterruptHandle()
		fr, err := RunFleet(imgs, cfg, fc)
		if err != nil {
			t.Fatal(err)
		}
		return fr, cfg.Interrupt.KernelStats()
	}
	base, baseSt := run(FleetConfig{})
	dl, dlSt := run(FleetConfig{Deadlines: []uint64{1 << 40, 1 << 40, 1 << 40}})
	if dl.Fleet.DeadlineTotal != 3 || dl.Fleet.DeadlineMet != 3 {
		t.Errorf("deadline accounting = %d/%d, want 3/3", dl.Fleet.DeadlineMet, dl.Fleet.DeadlineTotal)
	}
	if got := dl.Fleet.SLOAttainment(); got != 1 {
		t.Errorf("SLOAttainment = %v, want 1", got)
	}
	dl.Fleet.DeadlineMet, dl.Fleet.DeadlineTotal = 0, 0
	if !reflect.DeepEqual(base, dl) {
		t.Errorf("a deadline that never fired perturbed the run")
	}
	if dlSt != baseSt {
		t.Errorf("kernel stats with an unreachable deadline %+v, without %+v", dlSt, baseSt)
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
	plan := &fault.Plan{Fails: []fault.TileFail{
		{Tile: layout[1].Manager, Cycle: 500_000},
		{Tile: layout[3].Slaves[0], Cycle: 700_000},
		{Tile: layout[5].Exec, Cycle: 2_500_000},
	}}
	run := func() (*FleetResult, []byte) {
		cfg := fleetCfg(8, 8)
		cfg.Fault = plan
		cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
		fr, err := RunFleet(imgs, cfg, FleetConfig{})
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
			if got, want := fingerprint(g.Result), solo[imgs[gi]]; !checkpointedMatches(got, want, g.Result.M.Checkpoints) {
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
	// The slave is excised in place; the manager and the exec tile
	// take their slots with them.
	if got := a.Fleet.SlotsQuarantined; got != 2 {
		t.Errorf("SlotsQuarantined = %d, want 2", got)
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

// TestFleetDeadlineInChainedCode: a loop whose blocks are chained in
// the L1 never comes back to the dispatch loop on its own, so its exec
// tile takes the deadline at a chained jump, and the slot is handed the
// queued guest at once instead of when the loop ends.
func TestFleetDeadlineInChainedCode(t *testing.T) {
	gzip := fleetImgs(t, "164.gzip")[0]
	imgs := []*guest.Image{sumLoop(200_000), gzip, gzip}
	const deadline = 500_000
	fr, err := RunFleet(imgs, fleetCfg(4, 4), FleetConfig{Deadlines: []uint64{deadline, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var de *DeadlineError
	if g := fr.Guests[0]; g.Status != GuestDeadlineExceeded || !errors.As(g.Err, &de) || !de.Running {
		t.Fatalf("guest 0 = %v (%v), want deadline-exceeded while running", g.Status, g.Err)
	}
	g := fr.Guests[2]
	if g.Status != GuestFinished || g.Slot != 0 || g.Admitted <= deadline || g.Admitted > deadline+1_000 {
		t.Errorf("guest 2 %v on slot %d, admitted at cycle %d: want finished on slot 0, admitted within 1000 cycles of the deadline %d",
			g.Status, g.Slot, g.Admitted, deadline)
	}
}

// TestFleetRetryTakesIdleSlot: a quarantined guest re-enters the queue
// at once, and a slot idle since its own guest finished takes it the
// cycle after the fail, paying only its restore penalty.
func TestFleetRetryTakesIdleSlot(t *testing.T) {
	imgs := fleetImgs(t, "181.mcf", "164.gzip")
	l, err := FleetSlotLayout(raw.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(4, 4)
	// gzip leaves slot 1 at cycle 1,349,312, long before the fail.
	const fail = 2_000_000
	cfg.Fault = fails(fault.TileFail{Tile: l[0].Exec, Cycle: fail})
	fr, err := RunFleet(imgs, cfg, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := fr.Guests[0]
	if g.Status != GuestFinished || g.Slot != 1 || g.Attempts != 2 {
		t.Fatalf("guest 0 %v on slot %d after %d attempts, want finished on slot 1 after 2", g.Status, g.Slot, g.Attempts)
	}
	if m := g.Result.M; m.Rollbacks != 1 || g.Admitted != fail+1+m.RollbackCycles {
		t.Errorf("guest 0 re-admitted at cycle %d after %d rollbacks, want %d: the cycle after the fail plus the restore penalty %d",
			g.Admitted, m.Rollbacks, fail+1+m.RollbackCycles, m.RollbackCycles)
	}
}

// TestFleetRetryWithRollback: a guest quarantined twice is retried
// twice. The first loss comes before its first checkpoint, so that
// retry starts from the image and is no rollback; the second resumes
// from the latest checkpoint, re-executing the cycles from it to the
// loss and paying the restore penalty once. The guest still converges
// to its solo fingerprint.
func TestFleetRetryWithRollback(t *testing.T) {
	imgs := fleetImgs(t, "181.mcf", "164.gzip", "164.gzip")
	p := raw.DefaultParams()
	p.Width, p.Height = 8, 8
	layout, err := FleetSlotLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FleetResult {
		cfg := fleetCfg(8, 8)
		// mcf loses slot 0 at once, waits for the gzip in slot 1 to
		// finish (about cycle 1.36M), and loses slot 1 too.
		cfg.Fault = &fault.Plan{Fails: []fault.TileFail{
			{Tile: layout[0].Exec, Cycle: 50_000},
			{Tile: layout[1].Manager, Cycle: 2_500_000},
		}}
		fr, err := RunFleet(imgs, cfg, FleetConfig{})
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
	if g.Attempts != 3 {
		t.Errorf("guest 0 ran %d attempts, want 3", g.Attempts)
	}
	m := g.Result.M
	if m.Rollbacks != 1 {
		t.Errorf("guest 0 recorded %d rollbacks, want 1 (only the second retry restores)", m.Rollbacks)
	}
	if m.ReexecCycles == 0 || m.ReexecCycles > DefaultCheckpointInterval {
		t.Errorf("guest 0 re-executed %d cycles, want (0, %d]: from its last checkpoint to the loss",
			m.ReexecCycles, DefaultCheckpointInterval)
	}
	if want := p.RollbackFixedOcc; m.RollbackCycles <= want {
		t.Errorf("guest 0 paid %d restore cycles, want one penalty above the fixed %d", m.RollbackCycles, want)
	}
	solo := soloFingerprints(t, imgs)
	if got, want := fingerprint(g.Result), solo[imgs[0]]; !checkpointedMatches(got, want, m.Checkpoints) {
		t.Errorf("restored guest diverged from solo run\n got %+v\nwant %+v", got, want)
	}
	if a.Fleet.GuestsRetried != 2 || a.Fleet.SlotsQuarantined != 2 {
		t.Errorf("fleet counters %+v, want 2 retries, 2 quarantines", a.Fleet)
	}
}

// TestFleetHandoffUnderStalls: under a fail plan a slot's hand-off runs
// on the recovery protocol. Every service tile of slot 0 stalls for
// 50,000 cycles or more as gzip finishes there, so the execution tile's
// vmSwitch waits on stalled tiles, and a slave dies before it acks. The
// hand-off waits for the slave until the manager excises it, and no
// longer: the excision's wake drops it, and the queued guest's first
// block is dispatched once the manager's excision bookkeeping
// (RecoveryOcc) and the wake's trip are done. The queued guest still
// runs to its solo fingerprint.
func TestFleetHandoffUnderStalls(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf", "164.gzip")
	l, err := FleetSlotLayout(raw.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(4, 4)
	// A slave of slot 0 dies in a longer stall, after the hand-off has
	// asked it to switch and before it acks: the hand-off must stop
	// waiting on it once the slot has dropped it.
	cfg.Fault = fails(fault.TileFail{Tile: l[0].Slaves[1], Cycle: 1_429_312})
	for _, tile := range []int{l[0].Manager, l[0].MMU, l[0].Sys, l[0].L15[0], l[0].Slaves[0], l[0].Slaves[1], l[0].Banks[0]} {
		// gzip finishes on slot 0 at cycle 1,349,312. The other tiles
		// outstall the manager, so phase 2's vmSwitch waits on workers
		// still stalled.
		dur := uint64(70_000)
		switch tile {
		case l[0].Manager:
			dur = 50_000
		case l[0].Slaves[1]:
			dur = 100_000
		}
		cfg.Fault.Stalls = append(cfg.Fault.Stalls, fault.TileStall{Tile: tile, Cycle: 1_349_313, Dur: dur})
	}
	cfg.Tracer = NewTracerFor(cfg.Params, 0)
	fr, err := RunFleet(imgs, cfg, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := fr.Guests[2]
	if g.Status != GuestFinished || g.Slot != 0 {
		t.Fatalf("guest 2 = %v on slot %d, want finished on slot 0", g.Status, g.Slot)
	}
	// The slave's excision, then guest 2's first dispatch on slot 0.
	var excised, dispatched uint64
	for _, ev := range cfg.Tracer.Events() {
		switch {
		case excised == 0 && ev.Name == "excise" && ev.V1 == uint64(l[0].Slaves[1]):
			excised = ev.TS
		case dispatched == 0 && ev.Name == "dispatch" && int(ev.PID) == l[0].Exec && ev.TS > 1_349_312:
			dispatched = ev.TS
		}
	}
	if excised == 0 || dispatched < excised || dispatched > excised+cfg.Params.RecoveryOcc+100 {
		t.Errorf("slave %d excised at cycle %d, guest 2 first dispatched at %d: want the hand-off to end on the excision's wake",
			l[0].Slaves[1], excised, dispatched)
	}
	solo := soloFingerprints(t, imgs)
	for gi, g := range fr.Guests {
		if got, want := fingerprint(g.Result), solo[imgs[gi]]; !checkpointedMatches(got, want, g.Result.M.Checkpoints) {
			t.Errorf("guest %d diverged from its solo run\n got %+v\nwant %+v", gi, got, want)
		}
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
	cfg.Fault = &fault.Plan{Fails: []fault.TileFail{
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
		plan := &fault.Plan{Fails: []fault.TileFail{
			{Tile: int(failTile), Cycle: uint64(failCycle)},
		}}
		err = validateFleetFaultPlan(plan, slots, p)
		inSlot := failTile >= 0 && int(failTile) < p.Tiles() && slotIndexOf(slots, p.Tiles())[failTile] >= 0
		if valid := inSlot && failCycle > 0; valid != (err == nil) {
			t.Fatalf("%dx%d, %d slots: fail:%d@%d valid=%v, validator says %v",
				w, h, len(slots), failTile, failCycle, valid, err)
		}
	})
}
