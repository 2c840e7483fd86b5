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
// tile, each longer than the watchdog, on top of a slave and a bank
// fail-stopping, with recovery armed, must still produce the
// architecturally correct result — every protocol leg has a watchdog
// or is idempotent/deduplicated.
func TestFaultChaosRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = stallStorm(60)
	cfg.Fault.Fails = []fault.TileFail{{Tile: 8, Cycle: 100_000}, {Tile: 7, Cycle: 200_000}}
	res := checkAgainstReference(t, sumLoop(2000), cfg)
	if res.M.Timeouts == 0 || res.M.Retries == 0 {
		t.Errorf("stalls longer than the watchdog but %d timeouts, %d retries", res.M.Timeouts, res.M.Retries)
	}
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

// TestStalledDirtyBankRollsBack: a stall-only plan arms no
// checkpoints, but a data bank stalled past HeartbeatTimeout while it
// holds dirty lines is taken for dead all the same. It rolls back —
// from the image, there being no checkpoint — and the run still ends in
// the fault-free state.
func TestStalledDirtyBankRollsBack(t *testing.T) {
	img := fleetImgs(t, "181.mcf")[0]
	clean, err := Run(img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 300_000, Dur: 300_000})
	res, err := Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d under a stall-only plan, want 0", res.M.Checkpoints)
	}
	if res.M.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1 (the stalled bank held dirty lines)", res.M.Rollbacks)
	}
	if res.M.ReexecCycles < 300_000 {
		t.Errorf("ReexecCycles = %d, want the whole run up to detection (no checkpoint to restore)", res.M.ReexecCycles)
	}
	if res.StateHash != clean.StateHash || res.ExitCode != clean.ExitCode {
		t.Errorf("state %#x exit %d, fault-free %#x exit %d", res.StateHash, res.ExitCode, clean.StateHash, clean.ExitCode)
	}
}

// TestSMCUnderFaultRecovery runs smcImage's invalidation handshake on
// the robust path, with L1.5 bank tile 1 stalled across the
// invalidation for longer than the watchdog, so the handshake times out
// and re-sends to the one target that has not acked. Each row must
// still match the reference interpreter, and pins the counters the
// handshake drives.
func TestSMCUnderFaultRecovery(t *testing.T) {
	type pin struct {
		cycles, retries, timeouts, smc, hash uint64
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
		want pin
	}{
		{"stall/l15", &fault.Plan{Stalls: []fault.TileStall{{Tile: 1, Cycle: 4_000, Dur: 50_000}}},
			pin{cycles: 56_896, retries: 1, timeouts: 1, smc: 1, hash: 0xec85af24acb89ae6}},
	} {
		cfg := DefaultConfig()
		cfg.Fault = tc.plan
		res := checkAgainstReference(t, smcImage(), cfg)
		m := res.M
		got := pin{res.Cycles, m.Retries, m.Timeouts, m.SMCInvalidations, res.StateHash}
		if got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestRecoveryProtocolTranslatesOnce: a plan that never fires arms the
// recovery protocol on Run's machine and loses nothing, so the manager
// has nothing to retry. A slave's work request overtakes its result on
// every translation of more than one word; taking that for a lost
// result re-translated the block (181.mcf: 259 translations for 165).
func TestRecoveryProtocolTranslatesOnce(t *testing.T) {
	for _, img := range fleetImgs(t, "164.gzip", "181.mcf") {
		plain, err := Run(img, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Fault = &fault.Plan{Stalls: []fault.TileStall{{Tile: 1, Cycle: 1 << 60, Dur: 1}}}
		armed, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, a := plain.M, armed.M
		if a.Retries != 0 || a.Translations != p.Translations || a.L2CStores != p.L2CStores {
			t.Errorf("%s: retries %d, translations %d, L2 stores %d; want 0 retries and the plain run's %d and %d",
				img.Name, a.Retries, a.Translations, a.L2CStores, p.Translations, p.L2CStores)
		}
	}
}
