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
// retries, excision, rollback re-execution, morph flushes.
// Every row below is one core.Run dumped whole (cycles, exit, stdout,
// the metrics set, state hash, per-tile busy vector, and the trace
// JSON where traced, and the event kernel's dispatch and dead-pop
// counts) under one condition, for each of three guests.
// A change that claims to leave the tile kernels' virtual behaviour
// alone must leave every digest untouched.
//
// Every row with a fail clause was re-pinned when Run became a fleet of
// one slot and recovered in place: the fleet supervisor wakes at each
// fail cycle (the kernel's dispatch counts move), the machine is built
// once, so a dead tile's fail clause fires once and its kernel lives
// on, fault-swallowing, and a rollback re-admits the guest through the
// vmSwitch hand-off instead of restarting the clock at the detection
// cycle. Every stall-only and fault-free row was unchanged. Every row
// with a fault clause, stall-only ones too, was re-pinned again when
// the recovery protocol stopped taking a work request that overtook its
// slave's result for a lost one, which had re-translated nearly every
// block, and a rollback began to re-send a line fill waiting on the
// dead bank at once. The fault-free rows are unchanged.
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
		want: [3]string{"1356928:0:6cad4bbcdd3e046c", "2806372:0:674f4b8302eb372c", "14330884:0:98121efded4e6388"}},
	{name: "fail/bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 400_000}) },
		want: [3]string{"1356928:0:e42476fa163ff29c", "3341793:0:9378828e3fc7d0a7", "14439993:0:305422e4e5bb7d3b"}},
	{name: "fail/slave+bank+switchable-slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 3, Cycle: 90_000},
				fault.TileFail{Tile: 14, Cycle: 250_000},
				fault.TileFail{Tile: 12, Cycle: 600_000})
		},
		want: [3]string{"1356799:0:0b7e15dc1153bcdf", "3462545:0:fd0064ca2f18c229", "14215880:0:6c08bdacd4b37f82"}},
	{name: "fail/l15-bank/fleet", fleet: true,
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 1, Cycle: 300_000}) },
		want: [3]string{"2439119:0:d54c559afc77b11e", "5092173:0:705b016a0e06f343", "16862933:0:de77252daa1cc544"}},
	{name: "stall/mmu",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tileMMU, Cycle: 200_000, Dur: 30_000}) },
		want: [3]string{"1386428:0:21f59d8ffac32be3", "2835211:0:a2e2b76f71eb94bd", "14415720:0:50716b98bd9351bf"}},
	{name: "stall/bank",
		cfg:  func(c *Config) { c.Fault = stalls(fault.TileStall{Tile: tilePermBank, Cycle: 500_000, Dur: 45_000}) },
		want: [3]string{"1356400:0:15c7fc27075ca6c2", "2850217:0:0f4207fabcdaedce", "14429331:0:55214174f1f0fcde"}},
	{name: "stall/l15+sys+slave+two-on-one-bank",
		cfg: func(c *Config) {
			c.Fault = stalls(
				fault.TileStall{Tile: 1, Cycle: 60_000, Dur: 9_000},
				fault.TileStall{Tile: tileSys, Cycle: 1_000, Dur: 70_000},
				fault.TileStall{Tile: 11, Cycle: 120_000, Dur: 250_000},
				fault.TileStall{Tile: 2, Cycle: 300_000, Dur: 1_000},
				fault.TileStall{Tile: 2, Cycle: 300_500, Dur: 2_000})
		},
		want: [3]string{"1429057:0:b222da135dd0b9a6", "2884536:0:793614c48868ee5c", "14377389:0:e6908cd2d01bbe44"}},
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
		want: [3]string{"1356711:0:f2125fb70c809347", "3546042:0:ae292df3e9c855fb", "14357475:0:1a40e11e3a0901fd"}},
	{name: "stall-storm",
		cfg:  func(c *Config) { c.Fault = stallStorm(400) },
		want: [3]string{"5225459:0:311a7af53b68c968", "6959254:0:317723860e9d6029", "17324912:0:4865dd73a0184621"}},
	{name: "rollback/dead-dirty-bank",
		cfg:  func(c *Config) { c.Fault = fails(fault.TileFail{Tile: 7, Cycle: 450_000}) },
		want: [3]string{"1356928:0:f9fa2c7d9fe2420b", "3331609:0:5984c6cd02d1bab1", "14425269:0:841ede81e05abdaa"}},
	{name: "rollback/two-banks+slave",
		cfg: func(c *Config) {
			c.Fault = fails(
				fault.TileFail{Tile: 10, Cycle: 300_000},
				fault.TileFail{Tile: 13, Cycle: 500_000},
				fault.TileFail{Tile: 2, Cycle: 800_000})
		},
		want: [3]string{"1356928:0:3afb9c8a03f31731", "4343116:0:bab31b910f9d9199", "14368238:0:9e46293f51d69905"}},
	{name: "morph",
		cfg:  func(c *Config) { c.Morph = true },
		want: [3]string{"1366236:0:6622e6ac9babf468", "2814592:0:51b0a385b8a40dd4", "14525580:0:d384007fb2eca9b4"}},
	{name: "nospec/fail",
		cfg: func(c *Config) {
			c.Speculative = false
			c.Fault = fails(fault.TileFail{Tile: 12, Cycle: 120_000})
		},
		want: [3]string{"1624802:0:b2f304a220b41d7c", "3062063:0:58d3c94fa17f81ed", "18915963:0:3f7903c78c17283f"}},
	{name: "traced", traced: true,
		want: [3]string{"1356400:409651:479a41574f0f7bd2", "2805178:5774705:466e65215a83e615", "14411161:14022151:5a2b7ce84b726dad"}},
	{name: "traced/fail+stall", traced: true,
		cfg: func(c *Config) {
			c.Fault = &fault.Plan{
				Stalls: []fault.TileStall{{Tile: tileMMU, Cycle: 180_000, Dur: 15_000}},
				Fails:  []fault.TileFail{{Tile: 7, Cycle: 320_000}, {Tile: 8, Cycle: 500_000}}}
		},
		want: [3]string{"1371928:414182:c553f4e2d90f14d5", "3423885:5794576:cbff931c305c51d0", "14353306:14037262:a7a9c08613184e09"}},
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
