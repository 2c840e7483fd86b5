// Command simbench records the simulator's performance trajectory: it
// re-measures the hot-path microbenchmarks (DES event dispatch, the
// Advance/Recv round trip, the Tick-then-Recv round trip, the process
// switch at 2 and 64 processes, the rawexec inner loop, a full machine
// run of a data-bound and of a code-bound guest and the code-bound one
// again from a filled translation memo, tier-1 and tier-0 translation
// per block, the L1 code-cache fill)
// and the end-to-end quick figure suite (serial and through the
// RunParallel worker pool), then writes BENCH_sim.json so this and
// future perf PRs have a recorded, comparable baseline.
//
//	simbench                  # writes BENCH_sim.json in the cwd
//	simbench -o out.json -j 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tilevm/internal/bench"
	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/sim"
)

// microResult is one testing.Benchmark measurement.
type microResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	Seconds     float64 `json:"seconds"`
	// SwitchesPerOp is the goroutine switches per op counted by
	// sim.Stats, for the kernel micros that report it (a pointer, so a
	// reported zero — sim_handler_dispatch's whole point — is written).
	SwitchesPerOp *float64 `json:"switches_per_op,omitempty"`
	// DispatchesPerOp is the kernel dispatches per received message
	// counted by sim.Stats, for sim_tick_recv.
	DispatchesPerOp float64 `json:"dispatches_per_op,omitempty"`
}

// parentRun is what a pre_pr_baseline entry records of a parent
// commit: medians of runs interleaved with runs of the change on the
// host that recorded the file. Read the micros against the entries of
// the same names, the rest against quick_suite, service_throughput and
// parallel_sim.
type parentRun struct {
	Micro                     map[string]microResult `json:"micro"`
	QuickSuiteSerialSeconds   float64                `json:"quick_suite_serial_seconds"`
	QuickSuiteParallelSeconds float64                `json:"quick_suite_parallel_seconds"`
	ServiceSecondsPerJob      float64                `json:"service_seconds_per_job"`
	ParallelSimSerialSeconds  float64                `json:"parallel_sim_serial_seconds"`
	ParallelSimShardedSeconds float64                `json:"parallel_sim_sharded_seconds"`
}

type suiteResult struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// HostCPUs pins the CPU count the entry was measured on: a speedup
	// figure is meaningless without it (a 1-CPU host cannot exceed 1x).
	HostCPUs int `json:"host_cpus"`
}

type output struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Micro map[string]microResult `json:"micro"`

	// QuickSuite is the wall clock of regenerating Figures 4-10 plus
	// the headline over the 3-benchmark quick subset. FleetFault is the
	// quick fleet fault-tolerance sweep (quarantine/retry/deadline
	// policies), measured separately because it runs whole fleets.
	QuickSuite struct {
		Serial     suiteResult `json:"serial"`
		Parallel   suiteResult `json:"parallel"`
		Speedup    float64     `json:"speedup"`
		FleetFault suiteResult `json:"fleet_fault"`
	} `json:"quick_suite"`

	// ServiceThroughput is the daemon-layer benchmark: a closed-loop
	// run of gzip jobs through internal/service (admission queue →
	// batch scheduler → core.RunFleet), reporting wall seconds per
	// finished job. Wall-clock, so benchcheck gates it with the
	// generous time tolerance.
	ServiceThroughput struct {
		Jobs          int     `json:"jobs"`
		SecondsPerJob float64 `json:"seconds_per_job"`
		Seconds       float64 `json:"seconds"`
		HostCPUs      int     `json:"host_cpus"`
	} `json:"service_throughput"`

	// Warmup is the tiered-translation cold-start benchmark: virtual
	// cycles from guest arrival to the first 10k retired host
	// instructions, with the tier-0 template translator on vs. the
	// optimizing pipeline alone. Deterministic virtual cycles — host
	// noise cannot move these numbers.
	Warmup *bench.WarmupResult `json:"warmup"`

	// ParallelSim is the sharded-event-loop benchmark: one
	// oversubscribed 12-guest fleet on an 8×8 fabric, run on the serial
	// loop and on the sharded engine. Identical must always be true —
	// that is the engine's bit-for-bit contract; Speedup only means
	// anything when host_cpus > 1.
	ParallelSim *bench.FleetParallelResult `json:"parallel_sim"`

	// PlacementSweep is the cost-model placement benchmark: fixed-shape
	// carving vs the planner on oversubscribed slot-capped 8×8 and
	// 16×16 fleets. All figures are virtual cycles, so they are exact on
	// any host; Identical must always be true, and the planner must
	// strictly beat the fixed carver on makespan or utilization on
	// every grid.
	PlacementSweep *bench.PlacementSweepResult `json:"placement_sweep"`

	// PrePR pins the numbers measured at the commit before the perf PR
	// (serial harness, container/heap event queue, arena-walking
	// rawexec, no message pooling) on this same host class, so the
	// deltas in this file are meaningful without digging through git.
	PrePR struct {
		SimKernelNsPerOp        int64   `json:"sim_kernel_ns_per_op"`
		SimKernelAllocsPerOp    int64   `json:"sim_kernel_allocs_per_op"`
		MachineGzipNsPerOp      int64   `json:"machine_gzip_ns_per_op"`
		MachineGzipAllocsPerOp  int64   `json:"machine_gzip_allocs_per_op"`
		QuickSuiteSerialSeconds float64 `json:"quick_suite_serial_seconds"`

		// MapBackEnd is the parent of the map-free translator back end
		// (maps for every dataflow fact in opt and codegen), measured
		// interleaved with the new code on the 2-CPU host that recorded
		// this file; compare with the micro entries of the same names.
		MapBackEnd map[string]microResult `json:"map_back_end"`

		// LoopGoroutine is the parent of the loop-less serial kernel
		// (Run's own goroutine popping every event, two goroutine
		// switches per park), 8 interleaved runs.
		LoopGoroutine parentRun `json:"loop_goroutine"`

		// MirroredArena is the parent of the per-message clean-up: L1
		// fills that copied []rawisa.Inst into an arena and re-predecoded
		// it into a mirrored rawexec.Program, and a Recv that spent a
		// dispatch of its own on accrued local time. Its l1_fill is that
		// Insert plus bringing the mirror up to date.
		MirroredArena parentRun `json:"mirrored_arena"`

		// GoroutineServiceTiles is the parent of the handler kernels:
		// every MMU, bank, L1.5, syscall and slave tile a goroutine
		// looping on Recv. Medians of 8 runs interleaved with the change.
		GoroutineServiceTiles parentRun `json:"goroutine_service_tiles"`

		// AllocatingTranslator is the parent of the translator scratch:
		// a pipeline that allocated its decode buffer, a code window
		// per instruction, the IR, the optimizer's tables and the
		// emitter's buffer anew for every block. Medians of 8 runs
		// interleaved with the change.
		AllocatingTranslator parentRun `json:"allocating_translator"`
	} `json:"pre_pr_baseline"`

	Notes string `json:"notes"`
}

func bmark(f func(b *testing.B)) microResult {
	r := testing.Benchmark(f)
	m := microResult{
		NsPerOp:         r.NsPerOp(),
		AllocsPerOp:     r.AllocsPerOp(),
		BytesPerOp:      r.AllocedBytesPerOp(),
		N:               r.N,
		Seconds:         r.T.Seconds(),
		DispatchesPerOp: r.Extra["dispatches/op"],
	}
	if sw, ok := r.Extra["switches/op"]; ok {
		m.SwitchesPerOp = &sw
	}
	return m
}

func benchEventDispatch(b *testing.B) {
	s := sim.New()
	s.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchAdvanceRecv(b *testing.B) {
	s := sim.New()
	pt := s.NewPort("bench")
	payload := &struct{ n int }{}
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			pt.Send(0, payload, p.Now())
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Recv(pt)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

type countClockEnv struct{}

func (countClockEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) { return 0, 0 }
func (countClockEnv) GuestStore(addr uint32, val uint32, size uint8)                  {}
func (countClockEnv) Syscall(cpu *rawexec.CPU)                                        {}
func (countClockEnv) Assist(guestPC uint32, cpu *rawexec.CPU) error                   { return nil }
func (countClockEnv) Stopped() bool                                                   { return false }
func (countClockEnv) Interrupted() bool                                               { return false }

func benchRawexecInnerLoop(b *testing.B) {
	var p rawexec.Program
	p.Sync([]rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: -1},
		{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: -2},
		{Op: rawisa.EXITI, Target: 0xdead},
	})
	cpu := &rawexec.CPU{}
	cpu.R[1] = uint32(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := p.Exec(cpu, 0, &rawexec.CountClock{}, countClockEnv{}, 0); err != nil {
		b.Fatal(err)
	}
}

func runQuickSuite(workers int) (float64, error) {
	s := bench.NewSuite()
	s.Quick = true
	s.Workers = workers
	start := time.Now()
	figs := []func() (*bench.Figure, error){
		s.Figure4, s.Figure5, s.Figure6, s.Figure7,
		s.Figure8, s.Figure9, s.Figure10,
	}
	for _, f := range figs {
		if _, err := f(); err != nil {
			return 0, err
		}
	}
	if _, err := s.Headline(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func main() {
	var (
		outPath = flag.String("o", "BENCH_sim.json", "output file")
		workers = flag.Int("j", runtime.NumCPU(), "worker pool width for the parallel suite measurement")
	)
	flag.Parse()

	var out output
	out.Date = time.Now().UTC().Format(time.RFC3339)
	out.GoVersion = runtime.Version()
	out.HostCPUs = runtime.NumCPU()
	out.GOMAXPROCS = runtime.GOMAXPROCS(0)

	fmt.Fprintln(os.Stderr, "simbench: microbenchmarks...")
	out.Micro = map[string]microResult{
		"sim_event_dispatch": bmark(benchEventDispatch),
		"sim_advance_recv":   bmark(benchAdvanceRecv),
		"sim_tick_recv":      bmark(bench.TickRecvBench()),
		"sim_proc_switch":    bmark(bench.ProcSwitchBench(2)),
		"sim_proc_switch_64": bmark(bench.ProcSwitchBench(64)),

		"sim_handler_dispatch": bmark(bench.HandlerDispatchBench()),

		"rawexec_inner_loop": bmark(benchRawexecInnerLoop),
		"machine_run_gzip":   bmark(bench.MachineRunBench("164.gzip")),
		"machine_run_gcc":    bmark(bench.MachineRunBench(bench.TranslateCorpusWorkload)),

		"machine_run_gcc_warm": bmark(bench.MachineRunWarmBench(bench.TranslateCorpusWorkload)),

		"translate_block_tier1": bmark(bench.TranslateBlockBench(false)),
		"translate_block_tier0": bmark(bench.TranslateBlockBench(true)),
		"l1_fill":               bmark(bench.L1FillBench()),
	}

	if sw := out.Micro["sim_handler_dispatch"].SwitchesPerOp; sw == nil || *sw != 0 {
		fmt.Fprintln(os.Stderr, "simbench: sim_handler_dispatch switched goroutines: a handler did not run on its requester's goroutine")
		os.Exit(1)
	}

	fmt.Fprintln(os.Stderr, "simbench: quick figure suite, serial...")
	serial, err := runQuickSuite(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simbench: quick figure suite, %d workers...\n", *workers)
	par, err := runQuickSuite(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	cpus := runtime.NumCPU()
	out.QuickSuite.Serial = suiteResult{Workers: 1, Seconds: serial, HostCPUs: cpus}
	out.QuickSuite.Parallel = suiteResult{Workers: *workers, Seconds: par, HostCPUs: cpus}
	out.QuickSuite.Speedup = serial / par

	fmt.Fprintln(os.Stderr, "simbench: quick fleet fault-tolerance sweep...")
	ffStart := time.Now()
	ffSuite := bench.NewSuite()
	ffSuite.Quick = true
	if _, err := ffSuite.FleetFaultSweep(); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	out.QuickSuite.FleetFault = suiteResult{Workers: 1, Seconds: time.Since(ffStart).Seconds(), HostCPUs: cpus}

	fmt.Fprintln(os.Stderr, "simbench: service throughput (closed-loop daemon layer)...")
	const svcJobs = 8
	secPerJob, svcRes, err := bench.ServiceThroughputBench(svcJobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	out.ServiceThroughput.Jobs = svcJobs
	out.ServiceThroughput.SecondsPerJob = secPerJob
	out.ServiceThroughput.Seconds = svcRes.Wall.Seconds()
	out.ServiceThroughput.HostCPUs = cpus

	fmt.Fprintln(os.Stderr, "simbench: tier-0 warmup (cold-start cycles)...")
	wres, err := bench.NewSuite().WarmupBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	out.Warmup = wres

	simW := *workers
	if simW < 2 {
		simW = 2 // determinism check still runs on 1-CPU hosts
	}
	fmt.Fprintf(os.Stderr, "simbench: sharded fleet (parallel_sim), %d sim workers...\n", simW)
	fp, err := bench.FleetParallelBench(simW)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if !fp.Identical {
		fmt.Fprintln(os.Stderr, "simbench: parallel_sim: sharded or interleaved fleet result DIVERGED from serial — the engine's bit-for-bit contract is broken")
		os.Exit(1)
	}
	out.ParallelSim = fp

	fmt.Fprintln(os.Stderr, "simbench: placement sweep (planner vs fixed, oversubscribed fleets)...")
	ps, err := bench.PlacementSweepBench(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if !ps.Identical {
		fmt.Fprintln(os.Stderr, "simbench: placement_sweep: repeated runs DIVERGED — planner placement broke determinism")
		os.Exit(1)
	}
	for _, g := range ps.Grids {
		if !g.PlannerWins {
			fmt.Fprintf(os.Stderr, "simbench: placement_sweep: planner does not strictly beat fixed shapes on %s (makespan %d vs %d, utilization %.4f vs %.4f)\n",
				g.Grid, g.Planner.Makespan, g.Fixed.Makespan, g.Planner.Utilization, g.Fixed.Utilization)
			os.Exit(1)
		}
	}
	out.PlacementSweep = ps

	out.PrePR.SimKernelNsPerOp = 19_700_000
	out.PrePR.SimKernelAllocsPerOp = 89_763
	out.PrePR.MachineGzipNsPerOp = 21_200_000
	out.PrePR.MachineGzipAllocsPerOp = 29_993
	out.PrePR.QuickSuiteSerialSeconds = 11.66
	out.PrePR.MapBackEnd = map[string]microResult{
		"translate_block_tier1": {NsPerOp: 45_050, AllocsPerOp: 53, BytesPerOp: 6_539},
		"translate_block_tier0": {NsPerOp: 2_380, AllocsPerOp: 18, BytesPerOp: 1_688},
		"machine_run_gzip":      {NsPerOp: 27_941_477, AllocsPerOp: 16_367, BytesPerOp: 3_329_460},
	}
	lg := &out.PrePR.LoopGoroutine
	lg.Micro = map[string]microResult{
		"sim_event_dispatch": {NsPerOp: 398},
		"sim_advance_recv":   {NsPerOp: 798},
		"sim_proc_switch":    {NsPerOp: 412},
		"sim_proc_switch_64": {NsPerOp: 495},
		"machine_run_gzip":   {NsPerOp: 15_211_398, AllocsPerOp: 11_372, BytesPerOp: 2_993_202},
	}
	lg.QuickSuiteSerialSeconds = 6.34
	lg.QuickSuiteParallelSeconds = 3.44
	lg.ServiceSecondsPerJob = 0.0156
	lg.ParallelSimSerialSeconds = 0.624
	lg.ParallelSimShardedSeconds = 0.590
	out.PrePR.MirroredArena = parentRun{
		Micro: map[string]microResult{
			"l1_fill":               {NsPerOp: 1_209, AllocsPerOp: 3, BytesPerOp: 127},
			"sim_tick_recv":         {NsPerOp: 384, DispatchesPerOp: 2},
			"machine_run_gzip":      {NsPerOp: 15_924_342, AllocsPerOp: 11_371, BytesPerOp: 2_993_195},
			"translate_block_tier1": {NsPerOp: 11_292, AllocsPerOp: 28, BytesPerOp: 4_724},
			"translate_block_tier0": {NsPerOp: 2_531, AllocsPerOp: 18, BytesPerOp: 1_688},
		},
		QuickSuiteSerialSeconds:   6.47,
		QuickSuiteParallelSeconds: 2.68,
		ServiceSecondsPerJob:      0.0189,
		ParallelSimSerialSeconds:  0.616,
		ParallelSimShardedSeconds: 0.606,
	}
	out.PrePR.GoroutineServiceTiles = parentRun{
		Micro: map[string]microResult{
			"sim_event_dispatch": {NsPerOp: 40},
			"sim_advance_recv":   {NsPerOp: 687},
			"sim_tick_recv":      {NsPerOp: 365, DispatchesPerOp: 1},
			"sim_proc_switch":    {NsPerOp: 318},
			"sim_proc_switch_64": {NsPerOp: 429},
			"machine_run_gzip":   {NsPerOp: 18_307_461, AllocsPerOp: 11_565, BytesPerOp: 2_633_393},
		},
		QuickSuiteSerialSeconds:   6.23,
		QuickSuiteParallelSeconds: 2.84,
		ServiceSecondsPerJob:      0.0197,
		ParallelSimSerialSeconds:  0.498,
		ParallelSimShardedSeconds: 0.721,
	}
	out.PrePR.AllocatingTranslator = parentRun{
		Micro: map[string]microResult{
			"translate_block_tier1": {NsPerOp: 14_720, AllocsPerOp: 30, BytesPerOp: 5_028},
			"translate_block_tier0": {NsPerOp: 3_517, AllocsPerOp: 20, BytesPerOp: 1_901},
			"machine_run_gcc":       {NsPerOp: 239_035_797, AllocsPerOp: 313_548, BytesPerOp: 36_088_663},
			"machine_run_gzip":      {NsPerOp: 14_881_618, AllocsPerOp: 11_628, BytesPerOp: 2_636_745},
			"l1_fill":               {NsPerOp: 237, AllocsPerOp: 1, BytesPerOp: 18},
		},
		QuickSuiteSerialSeconds:   4.87,
		QuickSuiteParallelSeconds: 2.43,
		ServiceSecondsPerJob:      0.0178,
		ParallelSimSerialSeconds:  0.482,
		ParallelSimShardedSeconds: 0.396,
	}
	out.Notes = "pre_pr_baseline measured at the commit before the perf PR on the same host; " +
		"parallel speedup is bounded by host_cpus (a single-core host cannot exceed 1x " +
		"regardless of worker count — the parallel path is then validated for determinism, " +
		"not speed); machine_run_gzip is a single-VM serial run, so the cross-shard send " +
		"pooling added with the sharded engine does not move its allocs/op — the pooled " +
		"path only exists in sharded fleet runs (parallel_sim); " +
		"pre_pr_baseline.map_back_end holds the parent of the map-free translator back end, " +
		"to be read against micro.translate_block_tier1 and micro.machine_run_gzip; " +
		"pre_pr_baseline.loop_goroutine holds the parent of the loop-less serial kernel " +
		"(medians of 8 runs interleaved with the new kernel): parallel_sim.speedup divides by the " +
		"serial kernel, which that change made faster while the shard loops are unchanged, so a " +
		"ratio at or below 1x on a 2-CPU host is a finding about the shard loops, not a regression " +
		"of sharded_seconds; pre_pr_baseline.mirrored_arena holds the parent of the predecoded " +
		"L1 fill and the folded Recv (medians of 4 interleaved runs): it moved the ratio the same " +
		"way again (serial 0.616 -> about 0.40 s, sharded unchanged at about 0.6 s, where Recv keeps " +
		"its Sync), and its two extra allocations per translation are the predecoded form " +
		"(translate_block_* 28 -> 30, 18 -> 20), paid once per block instead of once per fill; " +
		"pre_pr_baseline.goroutine_service_tiles holds the parent of the handler kernels (medians " +
		"of 8 interleaved runs on a host about a third slower than the one the earlier parents were " +
		"recorded on, so read it against this file's own entries only): sim_handler_dispatch is one " +
		"round trip, two dispatches, against two sim_tick_recv ops for the same trip between " +
		"goroutines; this time the sharded engine gained more than the serial one, because a shard " +
		"loop now serves service tiles itself instead of resuming a goroutine and waiting for it " +
		"(sharded 0.72 -> 0.39 s, serial 0.50 -> 0.48 s, ratio 0.69x -> 1.21x with 2 workers on 2 CPUs); " +
		"pre_pr_baseline.allocating_translator holds the parent of the translator scratch (medians of 8 " +
		"interleaved runs; the host had a neighbour, its eight tier-1 readings ran 12.7-21.5 us): its " +
		"machine_run_gcc is the same loop from a test binary of the parent, which has no such micro, and " +
		"machine_run_gzip's time did not move beyond that drift (14.9 against 16.9 ms here, 13.2 against " +
		"10.2 ms on one P) while its allocations halved, the warm-up translations being most of what a " +
		"gzip run allocates; parallel_sim's serial side gained more than its sharded side this time, so " +
		"the ratio went back from 1.21x to about 1.05x without anything sharded getting slower"

	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Printf("simbench: wrote %s (quick suite %.2fs serial, %.2fs with %d workers on %d CPU(s))\n",
		*outPath, serial, par, *workers, out.HostCPUs)
	fmt.Printf("simbench: parallel_sim %.2fs serial, %.2fs sharded ×%d (%.2fx, identical=%v); serial kernel %d dispatches, %d switches (%d interleaved)\n",
		fp.SerialSeconds, fp.ShardedSeconds, fp.Workers, fp.Speedup, fp.Identical,
		fp.SerialDispatches, fp.SerialSwitches, fp.InterleavedSwitches)
	fmt.Printf("simbench: service_throughput %.3fs/job over %d closed-loop jobs\n",
		secPerJob, svcJobs)
	for _, g := range ps.Grids {
		fmt.Printf("simbench: placement_sweep %s cap %d: makespan fixed %d → planner %d\n",
			g.Grid, g.MaxSlots, g.Fixed.Makespan, g.Planner.Makespan)
	}
	fmt.Printf("simbench: warmup tier0 %d vs opt %d cycles (%.3fx; no-spec %.3fx)\n",
		wres.Tier0Cycles, wres.OptCycles, wres.Speedup, wres.SpeedupNoSpec)
}
