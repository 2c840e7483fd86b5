package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"tilevm/internal/fault"
	"tilevm/internal/translate"
)

// Single-VM fault-path golden. TestFleetScheduleDigest pins carved
// fleets and TestSerialDispatchOrderDigest pins the event kernel on
// synthetic processes; neither pins what the service-tile kernels do
// under every kind of fault plan in Run's machine — heartbeats, the
// fail-stop drain, stalls taken between a receive and its body,
// excision and its wake, rollback re-execution, morph flushes.
// Every row below is one core.Run dumped whole (cycles, exit, stdout,
// the metrics set, state hash, per-tile busy vector, and the trace
// JSON where traced, and the event kernel's dispatch and dead-pop
// counts) under one condition, for each of three guests.
// A change that claims to leave the tile kernels' virtual behaviour
// alone must leave every digest untouched; one that moves a row
// re-pins it in a commit of its own, and CHANGES.md says why.
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
// Each lasts 21,000-29,000 cycles, so most catch a request in flight,
// which the stalled tile answers once its stall ends.
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
		want: [3]string{"1356928:0:70f0330b02b59103", "2806372:0:86c031e61b3e906d", "14330844:0:6ae5f5ddb8623486"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1356928:0:363cc8a27071fff2", "3345639:0:52a3da26ed96ed6c", "14425168:0:20fa830469c5f084"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1357045:0:b19c7efe8aaf1621", "3378547:0:c0938dc5f557239e", "14224203:0:adc35064367a270e"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2439119:0:a41066dcc7162874", "5092173:0:2a5a8525ea8fb4ba", "16862933:0:ab756b62f4e8e2bb"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1385930:0:6c5e0d376be02b19", "2833309:0:74b40fc2beb20054", "14415720:0:c49b7edde549f04d"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1356400:0:1ddb5643225940f2", "2850121:0:69d05dc947759e8d", "14429331:0:5e6f346bea84c7eb"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1359057:0:65e01a55825d730e", "2805178:0:eefa1e877c70c5e4", "14406465:0:1c53cfd6c6adabf8"}},
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
		want: [3]string{"1356604:0:f018e3c48a46b210", "3526117:0:1f2fc55f1d84aa28", "14326619:0:f8fb12eac5ce18cb"}},
	{name: "stall-storm",
		cfg:  func(c *Config) { c.Fault = stallStorm(400) },
		want: [3]string{"2977166:0:715526806fc34f08", "4406170:0:52108af7474fabca", "15836199:0:5f71326c0a438a15"}},
	{name: "rollback/dead-dirty-bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000}) },
		want: [3]string{"1356928:0:16c7f6eba52e451f", "3335696:0:72a16472ecb3dd1b", "14426036:0:ac19e2d8e7af8a8c"}},
	{name: "rollback/two-banks+slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1357245:0:e7e2aa082dabd37a", "4213045:0:f13cda87eff305ff", "14352573:0:cc796011a1ed14b4"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:1b8d0907afd1fc16", "2814592:0:2bbabaef48ca7800", "14525580:0:6e6b7b3d093ab6e8"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1618947:0:5df7a2ab3445846c", "3058847:0:038b1f8ddb60ca09", "18912594:0:398f010471a37606"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:6b2038c816ca1e40", "2805178:5774705:42cfa44648e1dae9", "14411161:14022151:b23cbf740d2223cf"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1356928:414173:5391f79da63f86d8", "3390804:5794048:4fdaff8724fca3a8", "14342617:14038322:d4b0cb4cab0f6823"}},
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
		fr, err := RunFleet(fleetImgs(t, guest, "164.gzip"), cfg, FleetConfig{})
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
