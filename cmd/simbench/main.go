// Command simbench records the simulator's performance trajectory: it
// re-measures the hot-path microbenchmarks (DES event dispatch, the
// Advance/Recv round trip, the Tick-then-Recv round trip, the process
// switch at 2 and 64 processes, the rawexec inner loop, a full machine
// run of a data-bound and of a code-bound guest and the code-bound one
// again from a filled translation memo, tier-1 and tier-0 translation
// per block, the L1 code-cache fill)
// and the end-to-end quick figure suite (serial and through the
// RunParallel worker pool), then writes BENCH_sim.json so this and
// future perf PRs have a recorded, comparable baseline. The headline of
// the file it replaces is carried over as "previous"; the trajectory
// before that is docs/perf-history.md.
//
//	simbench                  # writes BENCH_sim.json in the cwd
//	simbench -o out.json -j 8
package main

import (
	"encoding/json"
	"errors"
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

// previous is the headline of the file this run replaces: read the
// micros against the entries of the same names, the rest against
// quick_suite, service_throughput and fleet_kernel.
type previous struct {
	Date                      string                 `json:"date"`
	HostCPUs                  int                    `json:"host_cpus"`
	Micro                     map[string]microResult `json:"micro"`
	QuickSuiteSerialSeconds   float64                `json:"quick_suite_serial_seconds"`
	QuickSuiteParallelSeconds float64                `json:"quick_suite_parallel_seconds"`
	ServiceSecondsPerJob      float64                `json:"service_seconds_per_job"`
	FleetKernelSeconds        float64                `json:"fleet_kernel_seconds,omitempty"`
}

// readPrevious summarises the file at path; nil if there is none.
func readPrevious(path string) (*previous, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var old output
	if err := json.Unmarshal(raw, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &previous{
		Date:                      old.Date,
		HostCPUs:                  old.HostCPUs,
		Micro:                     old.Micro,
		QuickSuiteSerialSeconds:   old.QuickSuite.Serial.Seconds,
		QuickSuiteParallelSeconds: old.QuickSuite.Parallel.Seconds,
		ServiceSecondsPerJob:      old.ServiceThroughput.SecondsPerJob,
	}
	if old.FleetKernel != nil {
		p.FleetKernelSeconds = old.FleetKernel.Seconds
	}
	return p, nil
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

	// FleetKernel is the event kernel on a fleet: one oversubscribed
	// 12-guest fleet on an 8×8 fabric, dispatched a slot at a time
	// (Seconds) and with every slot in one heap. Identical must always
	// be true — that is the kernel's bit-for-bit contract.
	FleetKernel *bench.FleetKernelResult `json:"fleet_kernel"`

	// PlacementSweep is the cost-model placement benchmark: fixed-shape
	// carving vs the planner on oversubscribed slot-capped 8×8 and
	// 16×16 fleets. All figures are virtual cycles, so they are exact on
	// any host; Identical must always be true, and the planner must
	// strictly beat the fixed carver on makespan or utilization on
	// every grid.
	PlacementSweep *bench.PlacementSweepResult `json:"placement_sweep"`

	Previous *previous `json:"previous,omitempty"`
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

	prev, err := readPrevious(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	out := output{Previous: prev}
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

	fmt.Fprintln(os.Stderr, "simbench: fleet_kernel (slot-at-a-time vs interleaved fleet)...")
	fk, err := bench.FleetKernelBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if !fk.Identical {
		fmt.Fprintln(os.Stderr, "simbench: fleet_kernel: interleaved fleet result DIVERGED from slot-at-a-time — the kernel's bit-for-bit contract is broken")
		os.Exit(1)
	}
	out.FleetKernel = fk

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
	fmt.Printf("simbench: fleet_kernel %.2fs (identical=%v); %d dispatches, %d switches (%d interleaved)\n",
		fk.Seconds, fk.Identical, fk.Dispatches, fk.Switches, fk.InterleavedSwitches)
	fmt.Printf("simbench: service_throughput %.3fs/job over %d closed-loop jobs\n",
		secPerJob, svcJobs)
	for _, g := range ps.Grids {
		fmt.Printf("simbench: placement_sweep %s cap %d: makespan fixed %d → planner %d\n",
			g.Grid, g.MaxSlots, g.Fixed.Makespan, g.Planner.Makespan)
	}
	fmt.Printf("simbench: warmup tier0 %d vs opt %d cycles (%.3fx; no-spec %.3fx)\n",
		wres.Tier0Cycles, wres.OptCycles, wres.Speedup, wres.SpeedupNoSpec)
}
