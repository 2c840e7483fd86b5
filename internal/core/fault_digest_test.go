package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/translate"
)

// Single-VM fault-path golden. TestFleetScheduleDigest pins fleets
// (whose fault policy is quarantine-and-retry, so the robust tile
// protocol never runs there) and TestSerialDispatchOrderDigest pins
// the event kernel on synthetic processes; neither pins what the
// service-tile kernels do under a fault plan in a single machine —
// heartbeats, the fail-stop drain, stalls taken between a receive and
// its body, retries, excision, rollback re-execution, morph flushes.
// Every row below is one core.Run dumped whole (cycles, exit, stdout,
// the metrics set, state hash, per-tile busy vector, and the trace
// JSON where traced, and the event kernel's dispatch and dead-pop
// counts) under one condition, for each of three guests.
// A change that claims to leave the tile kernels' virtual behaviour
// alone must leave every digest untouched.
//
// A single machine rejects a fail-stop of an L1.5 bank up front
// (validateFaultPlan: not an excisable worker), so that condition runs
// as a two-slot fleet whose first slot loses its L1.5 bank.

type runGolden struct {
	name   string
	cfg    func(*Config)
	traced bool
	fleet  bool
	// want is indexed like runGoldenGuests.
	want [3]string
}

var runGoldenGuests = [3]string{"164.gzip", "181.mcf", "176.gcc"}

func stalls(ts ...fault.TileStall) *fault.Plan { return &fault.Plan{Seed: 5, Stalls: ts} }

var runGoldens = []runGolden{
	{name: "fail/slave",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 8, Cycle: 150_000}) },
		want: [3]string{"1362298:0:d09cbd6d23246ebb", "2808973:0:6c18ff5b21495590", "14844523:0:ba14ca0ca82e76a5"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1362298:0:629c976473530c47", "3344484:0:a4de4229f2750f65", "14909679:0:3bb25ce790cf8254"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1361706:0:1772291df91e8ac3", "3464438:0:415266568f95874e", "14373512:0:4ce3c56d00593ecd"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2698092:0:c9ff24d86cb980c6", "5249817:0:515b2c8c8dc1511e", "16998107:0:22fe954a94fcac9c"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1392326:0:c14ab2c9b5f04de7", "2838998:0:ebfcca15a774f108", "15098615:0:3c3912d3a86dc2c0"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1362298:0:570214461d2d1568", "2853655:0:4bd3aee298ee40ff", "14924852:0:7e88d2cc39631dcd"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1433412:0:8125c52eeec5bfb3", "2888322:0:a09c353c74ec9f1a", "14989621:0:2aa53d111f7d4982"}},
	{name: "stall/norecover",
		cfg: func(c *Config) {
			c.FaultRecovery = false
			c.Fault = stalls(
				fault.TileStall{Tile: tileMMU, Cycle: 100_000, Dur: 5_000},
				fault.TileStall{Tile: 7, Cycle: 350_000, Dur: 12_000},
				fault.TileStall{Tile: 13, Cycle: 50_000, Dur: 40_000})
		},
		want: [3]string{"1360386:0:5beaf8920293918f", "2822178:0:419e233980418d91", "14414417:0:c4bcb3ae488bdcfa"}},
	{name: "stall-then-fail/slave+bank",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 9,
				Stalls: []fault.TileStall{
					{Tile: 15, Cycle: 80_000, Dur: 30_000},
					{Tile: 14, Cycle: 390_000, Dur: 20_000}},
				Fails: []fault.TileFail{
					{Tile: 15, Cycle: 100_000},
					{Tile: 14, Cycle: 400_000}}}
		},
		want: [3]string{"1361374:0:b1e828d337e44af2", "3486023:0:3cb3875720758e0b", "14675406:0:445f23353a5dada9"}},
	{name: "chaos/recover",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 7, DropProb: 0.01, DelayProb: 0.02, DelayCycles: 1_000,
				CorruptProb: 0.01, DRAMProb: 0.05}
		},
		want: [3]string{"1827796:0:cae4604154337733", "29037591:0:f23537f42afddee9", "39579550:0:ff6dc5b50fc3a651"}},
	{name: "chaos+fail+stall",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 21, DropProb: 0.005, DelayProb: 0.01, DelayCycles: 600,
				CorruptProb: 0.005, DRAMProb: 0.02,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 250_000, Dur: 8_000}},
				Fails:  []fault.TileFail{{Tile: 11, Cycle: 200_000}, {Tile: 2, Cycle: 700_000}}}
		},
		want: [3]string{"1642910:0:9d7aa70e1f187291", "15910970:0:9d5fd0d173fa14ca", "26588588:0:63e441f2752c3d6f"}},
	{name: "rollback/dead-dirty-bank",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000})
		},
		want: [3]string{"1362298:0:9095ccaf1a3e4ae0", "3334708:0:c8817cd12f139cb9", "14894048:0:065c37f7549fef12"}},
	{name: "rollback/two-banks+slave/interval",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.CheckpointInterval = 60_000
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1362298:0:28862bb7eca18ae4", "4302066:0:3e531e734ac3a5ae", "14723221:0:0de2d812891f4ca7"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:50fbf78f15731f46", "2814592:0:46d5e400a533bb77", "14525580:0:e0e3d4f7d126b69b"}},
	{name: "morph/stall+chaos",
		cfg: func(c *Config) {
			c.Morph = true
			c.Fault = &fault.Plan{Seed: 3, DropProb: 0.004, DelayProb: 0.01, DelayCycles: 300,
				Stalls: []fault.TileStall{{Tile: 14, Cycle: 150_000, Dur: 25_000}}}
		},
		want: [3]string{"1421985:0:f91d1d2ed0dcffa2", "7794834:0:f43ed0efd3bbba19", "19653715:0:4082bb8ddc378290"}},
	{name: "tier0",
		cfg:  func(c *Config) { c.Tier0, c.TierUpThreshold = true, 2_000 },
		want: [3]string{"1356005:0:56d41e6ca691b66b", "2804518:0:fcf3301a2c3a8c4d", "14408246:0:0496a7bde7b5aa1c"}},
	{name: "tier0/nospec/fail",
		cfg: func(c *Config) {
			c.Speculative, c.Tier0 = false, true
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1542856:0:71881b65de68f1d9", "3482927:0:b32db8c3f88c7e0c", "18427098:0:620b3fbf3445d2f7"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:2196f4940b0f464c", "2805178:5774705:4615eed752bb9f78", "14411161:14022151:939d8278384a0d12"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 4,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1377298:502631:e220d45c707e4565", "3426270:5837231:99280adf6d575492", "14661881:15282543:b9b58692e9c2d596"}},
}

func (g *runGolden) run(t *testing.T, guest string, memo *translate.Memo) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	if g.fleet {
		cfg = fleetCfg(4, 4)
	}
	if g.cfg != nil {
		g.cfg(&cfg)
	}
	cfg.Memo = memo
	if g.traced {
		cfg.Tracer = NewTracer(50_000)
	}
	cfg.Interrupt = NewInterruptHandle() // the test's way to the kernel's counters
	h := fnv.New64a()
	var cycles uint64
	if g.fleet {
		fr, err := RunFleet(fleetImgs(t, guest, "164.gzip"), cfg, FleetConfig{RetrySeed: 17})
		if err != nil {
			t.Fatalf("%s/%s: %v", g.name, guest, err)
		}
		writeFleetResult(h, fr)
		cycles = fr.Makespan
	} else {
		r, err := Run(fleetImgs(t, guest)[0], cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", g.name, guest, err)
		}
		fmt.Fprintf(h, "cycles=%d exit=%d hash=%#x stdout=%q busy=%v\n%+v\n",
			r.Cycles, r.ExitCode, r.StateHash, r.Stdout, r.TileBusy, r.M)
		cycles = r.Cycles
	}
	n := 0
	if g.traced {
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		n = buf.Len()
	}
	// The event kernel's own contract: how many events the (last
	// attempt's) run dispatched and how many superseded wakeups it
	// discarded. Switches and run-ons are free to move.
	ks := cfg.Interrupt.KernelStats()
	fmt.Fprintf(h, "dispatches=%d deadpops=%d\n", ks.Dispatches, ks.DeadPops)
	return fmt.Sprintf("%d:%d:%016x", cycles, n, h.Sum64())
}

func TestRunFaultDigest(t *testing.T) {
	// Every row twice: translating everything itself, and against a
	// translation memo that plain runs of the guests filled beforehand,
	// so most of what a row translates — under faults, retries, tiers
	// and rollback — is handed to it. The goldens are the same.
	memo := prefilledMemo(t, runGoldenGuests[:]...)
	for i := range runGoldens {
		g := &runGoldens[i]
		for gi, guest := range runGoldenGuests {
			if got := g.run(t, guest, nil); got != g.want[gi] {
				t.Errorf("%s/%s: digest %q, golden %q", g.name, guest, got, g.want[gi])
			}
			if got := g.run(t, guest, memo); got != g.want[gi] {
				t.Errorf("%s/%s: digest %q with a pre-filled memo, golden %q", g.name, guest, got, g.want[gi])
			}
		}
	}
}

// prefilledMemo returns a memo holding what a default and a tier-0 run
// of each guest translate.
func prefilledMemo(t *testing.T, guests ...string) *translate.Memo {
	t.Helper()
	memo := translate.NewMemo()
	for _, img := range fleetImgs(t, guests...) {
		for _, cfg := range []Config{fleetCfg(4, 4), tier0Cfg()} {
			cfg.Memo = memo
			if _, err := Run(img, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return memo
}
