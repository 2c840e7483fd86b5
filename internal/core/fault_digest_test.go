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
		want: [3]string{"1362826:0:1f96daffa6dc6afc", "2810212:0:33b54cb712502c18", "14844611:0:ee92a9a6596195fc"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1362826:0:a8449635d04ca9ae", "3345943:0:1a99c9c75bb47cc5", "14909811:0:9c1fa9b1b0736515"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1362234:0:8d728807c4a92d8e", "3465849:0:6901c88f81e7cbd6", "14373512:0:8cfd4f8bf3e92cc4"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2439119:0:2c0e5eb0502d5bcb", "5092169:0:86102127470ab70c", "16862933:0:484d388d0fc52ca5"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1392326:0:a5846ed19ecaec8f", "2838998:0:e87563a8672d8b95", "15098615:0:42063f032c2da976"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1362298:0:57ed4a40fe375308", "2853655:0:5ce8fcc65c1da972", "14924852:0:74cb09cfeefb387a"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1433412:0:4ade460f3d128ee7", "2888322:0:3293a19645bb4041", "14989621:0:fecc2f60d65d2c5d"}},
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
		want: [3]string{"1361902:0:a3efaf72b6cd6d57", "3487468:0:241eae8a4cfeaff2", "14675538:0:4e72cca102cf9e2e"}},
	{name: "stall-storm",
		cfg:  func(c *Config) { c.Fault = stallStorm(400) },
		want: [3]string{"5040544:0:9b0919ad2a95ec01", "6941246:0:067f22479b738587", "17560753:0:1f1129b529d37730"}},
	{name: "rollback/dead-dirty-bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000}) },
		want: [3]string{"1362826:0:558020dd7c535ee9", "3336118:0:a242859c8b38c59f", "14894092:0:baf0a83dcdd3c4fa"}},
	{name: "rollback/two-banks+slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1362826:0:4954dba5fcac69fa", "4345307:0:5b31e134ba751498", "14723309:0:d6f36d70fc3eb3d6"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:6622e6ac9babf468", "2814592:0:51b0a385b8a40dd4", "14525580:0:d384007fb2eca9b4"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1569829:0:2d314d5dbb6aadd0", "3009100:0:c07fc7b06ec11e5b", "19105648:0:294042ccc4fdfa64"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:479a41574f0f7bd2", "2805178:5774705:466e65215a83e615", "14411161:14022151:5a2b7ce84b726dad"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1377826:506317:22594d0f1c027bf6", "3427719:5847280:4b0f737f530e6a0e", "14661881:15296680:ac7beec1433f4b00"}},
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
