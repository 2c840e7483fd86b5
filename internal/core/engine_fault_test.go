package core

import (
	"testing"

	"tilevm/internal/checkpoint"
	"tilevm/internal/fault"
)

// TestFaultEmptyPlanIsNoOp: installing an empty fault plan must leave
// the run bit-identical to a run with no plan at all — cycle count and
// the full metrics set compare equal.
func TestFaultEmptyPlanIsNoOp(t *testing.T) {
	img := sumLoop(2000)
	run := func(plan *fault.Plan) *Result {
		cfg := DefaultConfig()
		cfg.MaxCycles = 500_000_000
		cfg.Fault = plan
		res, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	empty := run(&fault.Plan{})
	if bare.Cycles != empty.Cycles {
		t.Errorf("cycles differ: %d vs %d", bare.Cycles, empty.Cycles)
	}
	if bare.M != empty.M {
		t.Errorf("metrics differ:\nnil plan: %+v\nempty plan: %+v", bare.M, empty.M)
	}
}

// TestFaultDeterminism: the same workload under the same fault plan
// must reproduce bit-for-bit — identical cycles and identical metrics,
// including the fault and recovery counters.
func TestFaultDeterminism(t *testing.T) {
	img := sumLoop(4000)
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000_000
		cfg.Fault = &fault.Plan{
			Stalls: []fault.TileStall{{Tile: 6, Cycle: 30_000, Dur: 5_000}, {Tile: 1, Cycle: 60_000, Dur: 25_000}},
			Fails:  []fault.TileFail{{Tile: 8, Cycle: 90_000}},
		}
		res, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical faulted runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.M != b.M {
		t.Errorf("metrics differ across identical faulted runs:\n%+v\n%+v", a.M, b.M)
	}
	if a.M.FaultsInjected != 3 {
		t.Errorf("%d faults injected, want the plan's 3", a.M.FaultsInjected)
	}
}

// TestFaultChaosRecovers: a storm of stalls rotating over every service
// tile on top of a slave and a bank fail-stopping, with recovery armed,
// must still produce the architecturally correct result: a stalled tile
// answers late, and a dead one is excised.
func TestFaultChaosRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = stallStorm(60)
	cfg.Fault.Fails = []fault.TileFail{{Tile: 8, Cycle: 100_000}, {Tile: 7, Cycle: 200_000}}
	res := checkAgainstReference(t, sumLoop(2000), cfg)
	if res.M.RoleRemaps != 2 {
		t.Errorf("%d role remaps, want 2", res.M.RoleRemaps)
	}
}

// TestFaultSurvivesSlaveAndBankKill is the headline recovery scenario:
// fail-stop one translation slave and one L2 data bank mid-run. The
// machine must detect both deaths, excise the slave (re-queueing its
// work) and, because the dead bank still holds dirty lines, roll the
// guest back to its last checkpoint and re-execute without the bank
// rather than cut it out in place and lose its writebacks — and still
// produce the architecturally correct result.
//
// sumLoop spends its run in one block chained to itself in the L1,
// which never returns to the dispatch loop, where checkpoints are
// captured. A due checkpoint interrupts the chain like a pending SMC
// invalidation does, so the loop is checkpointed at its cadence — one
// capture every DefaultCheckpointInterval cycles, 21 over this run of
// 2.1 million — and the bank's death rolls back to the last one, not to
// the start. Captured at the dispatch loop alone, the run took 2
// checkpoints and re-executed 1,256,017 cycles.
func TestFaultSurvivesSlaveAndBankKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = &fault.Plan{
		Fails: []fault.TileFail{
			{Tile: 8, Cycle: 100_000},   // a permanent translation slave
			{Tile: 7, Cycle: 1_200_000}, // a switchable tile serving as bank
		},
	}
	cfg.Journal = &checkpoint.Journal{}
	res := checkAgainstReference(t, sumLoop(20000), cfg)
	// The machine is built once: each tile fails once, and the rollback
	// re-admits the guest to what the slot has left.
	if res.M.TileFails != 2 {
		t.Errorf("TileFails = %d, want 2 (slave and bank once each)", res.M.TileFails)
	}
	if res.M.RoleRemaps < 1 {
		t.Errorf("RoleRemaps = %d, want >= 1 (slave excision)", res.M.RoleRemaps)
	}
	if res.M.Rollbacks < 1 {
		t.Errorf("Rollbacks = %d, want >= 1 (the dead bank held dirty lines)", res.M.Rollbacks)
	}
	rolledBack := false
	for _, ev := range cfg.Journal.Events {
		if ev.Kind == checkpoint.EvExcise && ev.A == 7 && ev.B == 1 {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Error("journal holds no rollback excision of bank tile 7")
	}
	if want := res.Cycles/DefaultCheckpointInterval - 1; res.M.Checkpoints < want {
		t.Errorf("Checkpoints = %d over %d cycles, want at least %d", res.M.Checkpoints, res.Cycles, want)
	}
	if res.M.ReexecCycles >= 300_000 {
		t.Errorf("rollbacks re-executed %d cycles, want under 300,000 (the last checkpoint, not the start)", res.M.ReexecCycles)
	}
}

// TestStalledDirtyBankRollsBack: under a plan with a fail clause (one
// that never fires), a data bank stalled past HeartbeatTimeout while it
// holds dirty lines is taken for dead. It rolls back to a checkpoint,
// and the run still ends in the fault-free state.
func TestStalledDirtyBankRollsBack(t *testing.T) {
	img := fleetImgs(t, "181.mcf")[0]
	clean, err := Run(img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Fault = &fault.Plan{
		Stalls: []fault.TileStall{{Tile: tilePermBank, Cycle: 300_000, Dur: 300_000}},
		Fails:  []fault.TileFail{{Tile: 8, Cycle: 1 << 60}},
	}
	res, err := Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Checkpoints == 0 {
		t.Error("no checkpoint under a plan with a fail clause")
	}
	if res.M.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1 (the stalled bank held dirty lines)", res.M.Rollbacks)
	}
	if res.M.ReexecCycles >= 300_000 {
		t.Errorf("ReexecCycles = %d, want a restore from a checkpoint, not from the image", res.M.ReexecCycles)
	}
	if res.StateHash != clean.StateHash || res.ExitCode != clean.ExitCode {
		t.Errorf("state %#x exit %d, fault-free %#x exit %d", res.StateHash, res.ExitCode, clean.StateHash, clean.ExitCode)
	}
}

// TestCleanBankExcisionWakesFill: 256.bzip2 loses bank 7, which holds
// no dirty line, at cycle 150,000, while the execution tile waits on a
// line fill from it. The manager's excision re-points the MMU and wakes
// the execution tile, which sends the fill again at once: it is served
// by a surviving bank a short round trip after the excision, not when
// some timer would next have re-sent it.
func TestCleanBankExcisionWakesFill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fails(fault.TileFail{Tile: 7, Cycle: 150_000})
	cfg.Tracer = NewTracer(0)
	if _, err := Run(fleetImgs(t, "256.bzip2")[0], cfg); err != nil {
		t.Fatal(err)
	}
	var excised uint64
	for _, ev := range cfg.Tracer.Events() {
		if ev.Name == "excise" && ev.V1 == 7 {
			if ev.V2 != 0 {
				t.Fatal("bank 7 held dirty lines: the scenario wants a clean excision")
			}
			excised = ev.TS
			break
		}
	}
	if excised == 0 {
		t.Fatal("bank 7 was never excised")
	}
	for _, ev := range cfg.Tracer.Events() {
		if ev.Name == "memfill" && int(ev.PID) == tileExec && ev.TS < excised && ev.TS+ev.Dur >= excised {
			if wait := ev.TS + ev.Dur - excised; wait > 5_000 {
				t.Errorf("the fill waiting on bank 7 ended %d cycles after its excision at %d", wait, excised)
			}
			t.Logf("fill %d..%d, excision at %d", ev.TS, ev.TS+ev.Dur, excised)
			return
		}
	}
	t.Fatalf("no line fill was waiting on bank 7 at its excision (cycle %d)", excised)
}

// TestSMCUnderFaultRecovery runs smcImage's invalidation handshake
// under the recovery protocol, armed by a fail clause that never fires,
// with L1.5 bank tile 1 stalled across the invalidation: the handshake
// waits for the stalled target's ack. Each row must still match the
// reference interpreter, and pins the cycles and counters. The bank is
// first scheduled 20 cycles into its stall window and loses the rest of
// it, 49,980 cycles, not the whole 50,000.
func TestSMCUnderFaultRecovery(t *testing.T) {
	type pin struct {
		cycles, smc, hash uint64
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
		want pin
	}{
		{"stall/l15", &fault.Plan{
			Stalls: []fault.TileStall{{Tile: 1, Cycle: 4_000, Dur: 50_000}},
			Fails:  []fault.TileFail{{Tile: 8, Cycle: 1 << 60}}},
			pin{cycles: 56_876, smc: 1, hash: 0xec85af24acb89ae6}},
	} {
		cfg := DefaultConfig()
		cfg.Fault = tc.plan
		res := checkAgainstReference(t, smcImage(), cfg)
		m := res.M
		got := pin{res.Cycles, m.SMCInvalidations, res.StateHash}
		if got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestRecoveryProtocolTranslatesOnce: a fail clause that never fires
// arms the recovery protocol on Run's machine, which loses nothing, so
// the manager has nothing to re-queue. A slave's work request overtakes its result on
// every translation of more than one word; taking that for a lost
// result re-translated the block (181.mcf: 259 translations for 165).
func TestRecoveryProtocolTranslatesOnce(t *testing.T) {
	for _, img := range fleetImgs(t, "164.gzip", "181.mcf") {
		plain, err := Run(img, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Fault = fails(fault.TileFail{Tile: 8, Cycle: 1 << 60})
		armed, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, a := plain.M, armed.M
		if a.Translations != p.Translations || a.L2CStores != p.L2CStores {
			t.Errorf("%s: translations %d, L2 stores %d; want the plain run's %d and %d",
				img.Name, a.Translations, a.L2CStores, p.Translations, p.L2CStores)
		}
	}
}
