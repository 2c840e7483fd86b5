package core

import (
	"errors"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/sim"
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
// machine must detect both deaths, excise the tiles (re-queueing the
// dead slave's work, redistributing the dead bank's address fraction),
// and still produce the architecturally correct result.
func TestFaultSurvivesSlaveAndBankKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = &fault.Plan{
		Fails: []fault.TileFail{
			{Tile: 8, Cycle: 100_000},   // a permanent translation slave
			{Tile: 7, Cycle: 1_200_000}, // a switchable tile serving as bank
		},
	}
	res := checkAgainstReference(t, sumLoop(20000), cfg)
	if res.M.TileFails != 2 {
		t.Errorf("TileFails = %d, want 2", res.M.TileFails)
	}
	if res.M.RoleRemaps < 2 {
		t.Errorf("RoleRemaps = %d, want >= 2 (slave and bank excision)", res.M.RoleRemaps)
	}
	if res.M.Retries == 0 {
		t.Error("no retries despite a dead bank servicing live addresses")
	}
	if res.M.RecoveryCycles == 0 {
		t.Error("bank excision recorded no recovery latency")
	}
	if res.M.WritebacksLost == 0 {
		t.Error("dead bank held no dirty lines (writeback-loss accounting silent)")
	}
}

// TestFaultWithoutRecoveryDeadlocksWithDiagnostic: the same bank kill
// with recovery disarmed must end in a diagnosed deadlock — the run
// terminates (no hang) and the error names each blocked tile kernel
// and the port it is waiting on.
func TestFaultWithoutRecoveryDeadlocksWithDiagnostic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.FaultRecovery = false
	// Without speculation the translation pipeline goes idle once the
	// execution tile blocks, so quiescence (and the deadlock report) is
	// reached quickly instead of after the run-ahead walker drains.
	cfg.Speculative = false
	cfg.Fault = &fault.Plan{
		Fails: []fault.TileFail{{Tile: 7, Cycle: 50_000}},
	}
	_, err := Run(sumLoop(20000), cfg)
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *sim.DeadlockError", err)
	}
	if len(dl.Blocked) == 0 {
		t.Fatal("deadlock report lists no blocked processes")
	}
	foundExec := false
	for _, b := range dl.Blocked {
		if b.Proc == "exec@5" && b.Port == "tile5.in" {
			foundExec = true
		}
	}
	if !foundExec {
		t.Errorf("execution tile missing from deadlock report: %+v", dl.Blocked)
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
			pin{cycles: 57_232, retries: 32, timeouts: 1, smc: 1, hash: 0xec85af24acb89ae6}},
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
