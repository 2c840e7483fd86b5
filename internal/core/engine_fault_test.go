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

// TestFaultDeterminism: the same workload under the same fault seed
// must reproduce bit-for-bit — identical cycles and identical metrics,
// including the fault and recovery counters.
func TestFaultDeterminism(t *testing.T) {
	img := sumLoop(4000)
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000_000
		cfg.Fault = &fault.Plan{
			Seed:        42,
			DropProb:    0.01,
			DelayProb:   0.02,
			DelayCycles: 400,
			CorruptProb: 0.01,
			DRAMProb:    0.05,
			Stalls:      []fault.TileStall{{Tile: 6, Cycle: 30_000, Dur: 5_000}},
		}
		res, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical seeded runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.M != b.M {
		t.Errorf("metrics differ across identical seeded runs:\n%+v\n%+v", a.M, b.M)
	}
	if a.M.FaultsInjected == 0 {
		t.Error("no faults injected by a probabilistic plan")
	}
	// A different seed must produce a different fault schedule (the
	// counters are the cheapest witness).
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	cfg.Fault = &fault.Plan{Seed: 43, DropProb: 0.01, DelayProb: 0.02, DelayCycles: 400,
		CorruptProb: 0.01, DRAMProb: 0.05,
		Stalls: []fault.TileStall{{Tile: 6, Cycle: 30_000, Dur: 5_000}}}
	c, err := Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles && c.M == a.M {
		t.Error("different seeds produced identical runs")
	}
}

// TestFaultChaosRecovers: probabilistic drop/delay/corrupt/DRAM faults
// on every message class, with recovery armed, must still produce the
// architecturally correct result — every protocol leg has a watchdog
// or is idempotent/deduplicated.
func TestFaultChaosRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = &fault.Plan{
		Seed:        7,
		DropProb:    0.01,
		DelayProb:   0.02,
		DelayCycles: 1_000,
		CorruptProb: 0.01,
		DRAMProb:    0.05,
	}
	res := checkAgainstReference(t, sumLoop(2000), cfg)
	if res.M.MsgsDropped == 0 {
		t.Error("chaos plan dropped nothing")
	}
	if res.M.Retries == 0 {
		t.Error("dropped messages but no retries recorded")
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
// the robust path: under a seeded drop/delay/corrupt plan, and with
// L1.5 bank tile 1 stalled across the invalidation for longer than
// the watchdog, so the handshake times out and re-sends to the one
// target that has not acked. Each row must still match the reference
// interpreter, and pins the counters the handshake drives.
func TestSMCUnderFaultRecovery(t *testing.T) {
	type pin struct {
		cycles, retries, timeouts, smc, recycled, hash uint64
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
		want pin
	}{
		{"chaos", &fault.Plan{Seed: 2, DropProb: 0.05, DelayProb: 0.1, DelayCycles: 3_000, CorruptProb: 0.05},
			pin{cycles: 274_795, retries: 53, timeouts: 10, smc: 1, recycled: 2, hash: 0xec85af24acb89ae6}},
		{"stall/l15", &fault.Plan{Seed: 5, Stalls: []fault.TileStall{{Tile: 1, Cycle: 4_000, Dur: 50_000}}},
			pin{cycles: 57_232, retries: 32, timeouts: 1, smc: 1, recycled: 0, hash: 0xec85af24acb89ae6}},
	} {
		cfg := DefaultConfig()
		cfg.Fault = tc.plan
		res := checkAgainstReference(t, smcImage(), cfg)
		m := res.M
		got := pin{res.Cycles, m.Retries, m.Timeouts, m.SMCInvalidations, m.FaultMsgsRecycled, res.StateHash}
		if got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
