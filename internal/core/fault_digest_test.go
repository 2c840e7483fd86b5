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
		want: [3]string{"1362298:0:1a8db9a9bb8e46eb", "2808973:0:bbcce5f6e08d389b", "14844523:0:45c02b84b6fe7ac8"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1362298:0:f3893dd5373bf63f", "3344484:0:eed02b1212a25360", "14909679:0:6643274a4c30b0a4"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1361706:0:5d2ad6fd5ad102b1", "3464438:0:9af91cc195b2520b", "14373512:0:4ef60577d8935f64"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2698092:0:9cf9128a710a016c", "5249817:0:eaa220b89753b443", "16998107:0:9fee2d7671464a1b"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1392326:0:fdc14c298dabfd67", "2838998:0:8de02a6406da55a9", "15098615:0:d296c7ab6bc0cc5e"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1362298:0:7a39f23212449a72", "2853655:0:5e396ef15cc4f1f4", "14924852:0:162a4f4eac2d32d2"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1433412:0:1a8a0890a5da4053", "2888322:0:284a9f7f61c125c3", "14989621:0:566e35cbae7869f9"}},
	{name: "stall/norecover",
		cfg: func(c *Config) {
			c.FaultRecovery = false
			c.Fault = stalls(
				fault.TileStall{Tile: tileMMU, Cycle: 100_000, Dur: 5_000},
				fault.TileStall{Tile: 7, Cycle: 350_000, Dur: 12_000},
				fault.TileStall{Tile: 13, Cycle: 50_000, Dur: 40_000})
		},
		want: [3]string{"1360386:0:36e1ab5b9e885e77", "2822178:0:37a8d1f07b8096aa", "14414417:0:43c992307c93a18b"}},
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
		want: [3]string{"1361374:0:e5a34ff9c9b1ea68", "3486023:0:6d0f55fda12dead8", "14675406:0:837efa65812bdd73"}},
	{name: "chaos/recover",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 7, DropProb: 0.01, DelayProb: 0.02, DelayCycles: 1_000,
				CorruptProb: 0.01, DRAMProb: 0.05}
		},
		want: [3]string{"1827796:0:4f09d4808234ef09", "29037591:0:eb53efc1a4ba364c", "39579550:0:d817efd285b667ef"}},
	{name: "chaos+fail+stall",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 21, DropProb: 0.005, DelayProb: 0.01, DelayCycles: 600,
				CorruptProb: 0.005, DRAMProb: 0.02,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 250_000, Dur: 8_000}},
				Fails:  []fault.TileFail{{Tile: 11, Cycle: 200_000}, {Tile: 2, Cycle: 700_000}}}
		},
		want: [3]string{"1642910:0:8c65d55a67f925fd", "15910970:0:08bbb28fdf16ccb0", "26588588:0:47d9876c3f21bade"}},
	{name: "rollback/dead-dirty-bank",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000})
		},
		want: [3]string{"1362298:0:d590a5d94b52abb6", "3334708:0:64275892b8dafab0", "14894048:0:c5d80a659641936a"}},
	{name: "rollback/two-banks+slave/interval",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.CheckpointInterval = 60_000
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1362298:0:31d9f73daba34894", "4302066:0:81f46baa6ea43cd1", "14723221:0:9628e6cd70e30a26"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:ccefc046a326ab9a", "2814592:0:a54149b78732342a", "14525580:0:0c814ae913347ebc"}},
	{name: "morph/stall+chaos",
		cfg: func(c *Config) {
			c.Morph = true
			c.Fault = &fault.Plan{Seed: 3, DropProb: 0.004, DelayProb: 0.01, DelayCycles: 300,
				Stalls: []fault.TileStall{{Tile: 14, Cycle: 150_000, Dur: 25_000}}}
		},
		want: [3]string{"1421985:0:5cfc4df0f339d74d", "7794834:0:f973651c1be6da27", "19653715:0:08a88bebcbbe7e58"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1569257:0:feef61005a18c51e", "3007906:0:eb3175f0d4f5be58", "19105562:0:f6c180f599cd2d63"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:af9dc843d8c7128e", "2805178:5774705:4ea6f84db4d2e94b", "14411161:14022151:8f9fe2b670b085c9"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{Seed: 4,
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1377298:502631:329878598401d7d7", "3426270:5837231:e7ea812f228b1f2d", "14661881:15282543:bc65080f9d0c18bc"}},
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
