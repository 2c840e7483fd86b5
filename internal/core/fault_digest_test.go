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
		want: [3]string{"1362298:0:a3e69c15cdb52876", "2808973:0:f46e3937d5f3a582", "14844523:0:1794654fab065bc5"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1362298:0:d146f7a6beb89c9c", "3344484:0:a83c975bfb69034f", "14909679:0:e73de20251af4c57"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1361706:0:f1eaa6af06f40660", "3464438:0:b76723be659de47a", "14373512:0:2a5a3005460ae1e7"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2698092:0:a7a10698382017fa", "5249817:0:6f4bb067c2fc56cb", "16998107:0:17209dec123ec2f9"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1392326:0:439934bbea8eaeda", "2838998:0:f803e3324578d94e", "15098615:0:4095670e67d3cf97"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1362298:0:5e49e46bad65b2cd", "2853655:0:9868b18129101225", "14924852:0:9d651ae05b57e44f"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1433412:0:1d6d41ccca913eb0", "2888322:0:bf569549d37fc4c8", "14989621:0:cc554ccde1e344f8"}},
	{name: "stall/norecover",
		cfg: func(c *Config) {
			c.FaultRecovery = false
			c.Fault = stalls(
				fault.TileStall{Tile: tileMMU, Cycle: 100_000, Dur: 5_000},
				fault.TileStall{Tile: 7, Cycle: 350_000, Dur: 12_000},
				fault.TileStall{Tile: 13, Cycle: 50_000, Dur: 40_000})
		},
		want: [3]string{"1360386:0:278e3e02eab7adbc", "2822178:0:ede42a6263189df5", "14414417:0:f5ca44e1f2976234"}},
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
		want: [3]string{"1361374:0:f6993529845a1b6d", "3486023:0:1d9ce42e95c836f3", "14675406:0:3d5480e94464001a"}},
	{name: "chaos/recover",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 7, DropProb: 0.01, DelayProb: 0.02, DelayCycles: 1_000,
				CorruptProb: 0.01, DRAMProb: 0.05}
		},
		want: [3]string{"1827796:0:73fbdce39ff6cbdc", "29037591:0:20d3d1adaa2d968b", "39579550:0:bb381dcbf633facc"}},
	{name: "chaos+fail+stall",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 21, DropProb: 0.005, DelayProb: 0.01, DelayCycles: 600,
				CorruptProb: 0.005, DRAMProb: 0.02,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 250_000, Dur: 8_000}},
				Fails:  []fault.TileFail{{Tile: 11, Cycle: 200_000}, {Tile: 2, Cycle: 700_000}}}
		},
		want: [3]string{"1642910:0:5773ce24c55d6e64", "15910970:0:67584b2738dafdcd", "26588588:0:9ddfe1b7b6bc3b57"}},
	{name: "rollback/dead-dirty-bank",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000})
		},
		want: [3]string{"1362298:0:7b0c4fa51e994d7d", "3334708:0:a306b66be7517587", "14894048:0:ee313672fd7980a1"}},
	{name: "rollback/two-banks+slave/interval",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.CheckpointInterval = 60_000
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1362298:0:ced7b7863bc59e41", "4302066:0:adf8a7e12dd86914", "14723221:0:a850f97e561f4bbb"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:cbc3f6423a0daa55", "2814592:0:6298e4adf65f429f", "14525580:0:ab7aa1ab8b1e2367"}},
	{name: "morph/stall+chaos",
		cfg: func(c *Config) {
			c.Morph = true
			c.Fault = &fault.Plan{Seed: 3, DropProb: 0.004, DelayProb: 0.01, DelayCycles: 300,
				Stalls: []fault.TileStall{{Tile: 14, Cycle: 150_000, Dur: 25_000}}}
		},
		want: [3]string{"1421985:0:251267c1ca84ced2", "7794834:0:9e29cbda284aec1a", "19653715:0:857a3783e7214c3d"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1569257:0:2e50701d78d6f195", "3007906:0:208b43a6c8324b29", "19105562:0:6688814f771d9032"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:745e2afd70141ba5", "2805178:5774705:a3a05af0a8e290c0", "14411161:14022151:9a488dcc1e0679d0"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 4,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1377298:502631:c63c65b9c60f43d8", "3426270:5837231:50b9591b7fbcb238", "14661881:15282543:5e5ea31a95385fc7"}},
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
	// so most of what a row translates — under faults, retries and
	// rollback — is handed to it. The goldens are the same.
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

// prefilledMemo returns a memo holding what a default and a
// non-speculative run of each guest translate.
func prefilledMemo(t *testing.T, guests ...string) *translate.Memo {
	t.Helper()
	memo := translate.NewMemo()
	for _, img := range fleetImgs(t, guests...) {
		for _, cfg := range []Config{fleetCfg(4, 4), noSpecCfg()} {
			cfg.Memo = memo
			if _, err := Run(img, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return memo
}

// noSpecCfg is the default configuration without speculative
// translation: the paper's conservative translator.
func noSpecCfg() Config {
	cfg := DefaultConfig()
	cfg.Speculative = false
	return cfg
}
