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

func stalls(ts ...fault.TileStall) *fault.Plan { return &fault.Plan{Stalls: ts} }

// stallStorm is n short stalls, one every 6,000 cycles, rotating over
// every service tile of the default placement (the syscall tile, both
// L1.5 banks, the manager, the MMU, both data banks and two slaves).
// Each lasts 21,000-29,000 cycles, longer than NetWatchdog, so a stall
// that catches a request in flight makes the execution tile re-send.
func stallStorm(n int) *fault.Plan {
	tiles := []int{tileSys, 1, 9, tileManager, tileMMU, tilePermBank, 7, 3, 8}
	p := &fault.Plan{}
	for i := range n {
		p.Stalls = append(p.Stalls, fault.TileStall{
			Tile:  tiles[i%len(tiles)],
			Cycle: uint64(i+1) * 6_000,
			Dur:   21_000 + uint64(i/len(tiles)%9)*1_000,
		})
	}
	return p
}

var runGoldens = []runGolden{
	{name: "fail/slave",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 8, Cycle: 150_000}) },
		want: [3]string{"1362298:0:00c2ecff14148d94", "2808973:0:c7a3956bbd367cc4", "14844523:0:23a86913fe172a3d"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1362298:0:c32d097076e61758", "3344484:0:adcb738be41e0ea5", "14909679:0:d3d8f133d5b0a625"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1361706:0:1f002d5d5b6db4a2", "3464438:0:1ffb8c45a35c6afa", "14373512:0:807e9f78785f5b9f"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2698092:0:2635d03ef29557be", "5249817:0:dfb32c17493ade17", "16998107:0:b7ddd4ef4f28db0d"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1392326:0:835055a4c9382532", "2838998:0:803ddf805cea5510", "15098615:0:10a4577b0f607c3d"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1362298:0:e061822bddefae6d", "2853655:0:2e9c4d59a8cd236d", "14924852:0:5fd87f8500a75bef"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1433412:0:a8cfe8468a9e7c9e", "2888322:0:0facbf6a787dca28", "14989621:0:85231b1c778eabc0"}},
	{name: "stall/norecover",
		cfg: func(c *Config) {
			c.FaultRecovery = false
			c.Fault = stalls(
				fault.TileStall{Tile: tileMMU, Cycle: 100_000, Dur: 5_000},
				fault.TileStall{Tile: 7, Cycle: 350_000, Dur: 12_000},
				fault.TileStall{Tile: 13, Cycle: 50_000, Dur: 40_000})
		},
		want: [3]string{"1360386:0:44b257c6d0ae6eca", "2822178:0:bc41e7f7cbd4a6eb", "14414417:0:e98af3f4ec6ac3fa"}},
	{name: "stall-then-fail/slave+bank",
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{
				Stalls: []fault.TileStall{
					{Tile: 15, Cycle: 80_000, Dur: 30_000},
					{Tile: 14, Cycle: 390_000, Dur: 20_000}},
				Fails: []fault.TileFail{
					{Tile: 15, Cycle: 100_000},
					{Tile: 14, Cycle: 400_000}}}
		},
		want: [3]string{"1361374:0:32fd96e207eea2f5", "3486023:0:860e3caee7d28851", "14675406:0:8375c78f50eb8c56"}},
	{name: "stall-storm",
		cfg:  func(c *Config) { c.Fault = stallStorm(400) },
		want: [3]string{"5040544:0:c115c119af75dad0", "6941246:0:e27495334216cbdc", "17560753:0:d2079c57fa8e3e87"}},
	{name: "rollback/dead-dirty-bank",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000})
		},
		want: [3]string{"1362298:0:136a8b7570d2d709", "3334708:0:86adba10c3d6026d", "14894048:0:8e3c57d7c52e8c67"}},
	{name: "rollback/two-banks+slave/interval",
		cfg: func(c *Config) {
			c.Recovery = RecoverRollback
			c.CheckpointInterval = 60_000
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1362298:0:de4566a896dcb1f3", "4302066:0:a36c10405d831b10", "14723221:0:38c6e5450dc50299"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:7df899532903cd1d", "2814592:0:d40372e6b90e5079", "14525580:0:5aa598a2d77d87b9"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1569257:0:5afc011bfce2cde7", "3007906:0:239ed194b35b099b", "19105562:0:111dbb144de4d3e0"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:50439dc9a6cd37ad", "2805178:5774705:c64d1709b311b8ca", "14411161:14022151:50221ffab0923ea8"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1377298:502631:0161e90fa5dab7d2", "3426270:5837231:b29931b55cb49a98", "14661881:15282543:988eca30966ebc63"}},
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
