package core

import (
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/guest"
)

// Tier-0 battery (ISSUE 9): the IR-less template tier plus
// hotness-driven promotion must change timing only — never the
// architectural outcome — and must make cold start measurably faster.

// tier0Cfg arms the template tier with a low promotion threshold so
// short test workloads exercise the full tier-up protocol. Run-ahead
// speculation is off (the paper's base configuration): tier-0 serves
// demand translations only — speculative work is already off the
// critical path and uses the optimizing tier — so with speculation on,
// few blocks are template-tier and promotion rarely fires.
func tier0Cfg() Config {
	cfg := fleetCfg(4, 4)
	cfg.Speculative = false
	cfg.Tier0 = true
	cfg.TierUpThreshold = 2_000
	return cfg
}

// archOutcome is the guest-visible slice of a Result. Unlike the full
// archFingerprint, host-level counters (HostInsts, dispatches, cache
// traffic) are excluded: tier-0 blocks are shorter-lived and denser in
// dispatches, so those counters legitimately differ across tiers.
type archOutcome struct {
	StateHash uint64
	ExitCode  int32
	Stdout    string
}

func outcome(r *Result) archOutcome {
	return archOutcome{StateHash: r.StateHash, ExitCode: r.ExitCode, Stdout: r.Stdout}
}

// TestTier0PromotionAndInvariance: with tier-0 on, template blocks are
// installed, hot ones are promoted to the optimizing tier, and the
// guest's architectural outcome is bit-identical to a tier-1-only run.
func TestTier0PromotionAndInvariance(t *testing.T) {
	img := fleetImgs(t, "164.gzip")[0]

	base, err := Run(img, fleetCfg(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(img, tier0Cfg())
	if err != nil {
		t.Fatal(err)
	}

	if res.M.Tier0Installs == 0 {
		t.Error("tier-0 enabled but no template blocks installed")
	}
	if res.M.Promotions == 0 {
		t.Error("no hot blocks promoted (threshold 2000 should fire on gzip's inner loops)")
	}
	if res.M.Tier1Installs < res.M.Promotions {
		t.Errorf("Tier1Installs = %d < Promotions = %d (every promotion installs a tier-1 block)",
			res.M.Tier1Installs, res.M.Promotions)
	}
	if got, want := outcome(res), outcome(base); got != want {
		t.Errorf("tier-0 changed the architectural outcome\n got %+v\nwant %+v", got, want)
	}

	// Off by default: the plain config must never touch the tier machinery.
	if base.M.Tier0Installs != 0 || base.M.Promotions != 0 {
		t.Errorf("tier counters nonzero with tier-0 off: %+v", base.M)
	}
}

// TestTier0Determinism: two identical tier-0 runs are bit-identical,
// including cycle counts and every tier counter.
func TestTier0Determinism(t *testing.T) {
	img := fleetImgs(t, "181.mcf")[0]
	run := func() *Result {
		res, err := Run(img, tier0Cfg())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical tier-0 runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.M != b.M {
		t.Errorf("metrics differ across identical tier-0 runs:\n%+v\n%+v", a.M, b.M)
	}
}

// TestTier0WarmupFaster pins the acceptance criterion: arrival → first
// N retired host instructions is measurably faster with the template
// tier than with the optimizing tier alone, both with run-ahead
// speculation (tier-0 covers demand misses) and without it (tier-0
// carries the whole cold path).
func TestTier0WarmupFaster(t *testing.T) {
	img := fleetImgs(t, "164.gzip")[0]
	warm := func(tier0, spec bool) uint64 {
		cfg := fleetCfg(4, 4)
		cfg.Tier0 = tier0
		cfg.Speculative = spec
		cfg.WarmupInsts = 10_000
		res, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.WarmupCycles == 0 {
			t.Fatalf("warmup probe (tier0=%v spec=%v) never fired", tier0, spec)
		}
		return res.M.WarmupCycles
	}
	for _, spec := range []bool{true, false} {
		t0, opt := warm(true, spec), warm(false, spec)
		if t0 >= opt {
			t.Errorf("spec=%v: tier-0 warmup = %d cycles, optimizing-only = %d; template tier must be faster to first 10k insts",
				spec, t0, opt)
		}
	}
}

// TestFleetInvarianceWithTier0 is the ISSUE's fleet invariance case: a
// guest's StateHash/exit/stdout fingerprint is identical with tier-0
// on vs. off, even hosted in a fleet.
func TestFleetInvarianceWithTier0(t *testing.T) {
	imgs := fleetImgs(t, "164.gzip", "181.mcf")

	solo := map[*guest.Image]archOutcome{}
	for _, img := range imgs {
		res, err := Run(img, fleetCfg(4, 4)) // tier-0 OFF
		if err != nil {
			t.Fatal(err)
		}
		solo[img] = outcome(res)
	}

	fr, err := RunFleet(imgs, tier0Cfg(), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	promoted := uint64(0)
	for gi, g := range fr.Guests {
		if g.Result == nil {
			t.Fatalf("guest %d never ran", gi)
		}
		if got, want := outcome(g.Result), solo[imgs[gi]]; got != want {
			t.Errorf("guest %d outcome diverged with tier-0 on\n got %+v\nwant %+v", gi, got, want)
		}
		promoted += g.Result.M.Promotions
	}
	if promoted == 0 {
		t.Error("no promotions across the fleet (tier-up never exercised)")
	}
}

// TestTier0RollbackRecovers: kill an L2 bank mid-run with rollback
// recovery armed and tier-0 on. The restore path re-translates tier-0
// blocks as tier-0 (checkpoint Tier0PCs), re-arms pending promotions
// (checkpoint Hot), and still converges to the fault-free outcome.
func TestTier0RollbackRecovers(t *testing.T) {
	img := fleetImgs(t, "181.mcf")[0]

	clean, err := Run(img, tier0Cfg())
	if err != nil {
		t.Fatal(err)
	}

	cfg := tier0Cfg()
	cfg.Recovery = RecoverRollback
	cfg.Fault = &fault.Plan{Fails: []fault.TileFail{
		{Tile: 10, Cycle: 800_000}, // an L2 bank that holds dirty mcf lines by then
	}}
	res, err := Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Rollbacks == 0 {
		t.Fatal("bank kill under rollback recovery recorded no rollback")
	}
	if got, want := outcome(res), outcome(clean); got != want {
		t.Errorf("tier-0 + rollback diverged from fault-free tier-0 run\n got %+v\nwant %+v", got, want)
	}
	if res.M.Tier0Installs == 0 || res.M.Promotions == 0 {
		t.Errorf("tier machinery silent across rollback: %+v", res.M)
	}
}
