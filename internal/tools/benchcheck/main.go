// Command benchcheck is the perf-regression smoke gate: it re-measures
// the headline simulator benchmarks (the machine_run_gzip micro and its
// code-bound twin machine_run_gcc, that one again from a filled
// translation memo, the serial quick figure suite, the
// quick fleet fault-tolerance sweep, and the fleet_kernel fleet with
// the kernel's switch count beside it) and compares
// them against the recorded trajectory in
// BENCH_sim.json, plus the translator's per-block cost in time,
// allocations and bytes (translate_block_tier1/tier0 over the 176.gcc
// corpus), the kernel's process switch (sim_proc_switch at 2 and
// 64 processes) and the three per-message costs (sim_tick_recv,
// sim_handler_dispatch, l1_fill).
// A metric that regresses beyond its tolerance fails the run. Tolerances are deliberately
// generous — shared CI hosts are noisy — so only a structural
// regression (an accidental O(n²), a lost pooling optimization) trips
// the gate; allocation counts are near-deterministic and get the
// tightest bound.
//
//	benchcheck                      # compare against ./BENCH_sim.json
//	benchcheck -baseline b.json -time-tol 3 -skip-suite
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
)

// baseline mirrors the slice of BENCH_sim.json this gate reads.
type baseline struct {
	HostCPUs int `json:"host_cpus"`
	Micro    map[string]struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
	} `json:"micro"`
	QuickSuite struct {
		Serial struct {
			Seconds float64 `json:"seconds"`
		} `json:"serial"`
		FleetFault struct {
			Seconds float64 `json:"seconds"`
		} `json:"fleet_fault"`
	} `json:"quick_suite"`
	FleetKernel *struct {
		Switches uint64 `json:"switches"`
	} `json:"fleet_kernel"`
	ServiceThroughput struct {
		Jobs          int     `json:"jobs"`
		SecondsPerJob float64 `json:"seconds_per_job"`
	} `json:"service_throughput"`
	PlacementSweep *struct {
		Seconds float64 `json:"seconds"`
	} `json:"placement_sweep"`
	Warmup *struct {
		Tier0Cycles uint64 `json:"tier0_cycles"`
		OptCycles   uint64 `json:"opt_cycles"`
	} `json:"warmup"`
}

func loadBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if _, ok := b.Micro["machine_run_gzip"]; !ok {
		return nil, fmt.Errorf("%s: no machine_run_gzip micro entry", path)
	}
	return &b, nil
}

// blockAllocTol bounds the translate allocs/block micros: the count is
// deterministic, so the bound is tight enough that one extra
// allocation per block (3 -> 4) trips it. blockBytesTol bounds their
// bytes/block, which is what a Result keeps and moves only with the
// size classes of the runtime: a scratch buffer that went back to being
// allocated per block is several times the bound.
const (
	blockAllocTol = 1.03
	blockBytesTol = 1.10
)

// A gcc run translates some 27,000 blocks and allocates three objects
// for each, so one more per translation is +18% of its allocs/op: the
// run without a translation memo must keep allocating what it did
// before there was one, and gccAllocTol is tight enough to say so.
// warmRatio is what a memo has to be worth: a run with nothing left to
// translate, measured here beside the run that translates everything,
// in at most three quarters of its time.
const (
	gccAllocTol = 1.03
	warmRatio   = 0.75
)

// slotSwitchRatio is what dispatching independent slots one at a time
// has to be worth, as a count: of the fleet_kernel fleet's dispatches,
// at most three quarters as many may be goroutine switches as when the
// same fleet's slots share one heap.
const slotSwitchRatio = 0.75

// metric is one baseline-vs-measured comparison. The gate trips when
// measured > baseline × tol; improvements never fail.
type metric struct {
	Name               string
	Baseline, Measured float64
	Tol                float64
}

// evaluate renders each metric's comparison line and collects the
// violations. Metrics with a zero baseline are reported but never
// fail (a fresh baseline file may predate the counter).
func evaluate(ms []metric) (lines, violations []string) {
	for _, m := range ms {
		status := "ok"
		if m.Baseline > 0 && m.Measured > m.Baseline*m.Tol {
			status = "REGRESSED"
			violations = append(violations,
				fmt.Sprintf("%s: %.0f exceeds baseline %.0f × tolerance %.2f", m.Name, m.Measured, m.Baseline, m.Tol))
		}
		ratio := 0.0
		if m.Baseline > 0 {
			ratio = m.Measured / m.Baseline
		}
		lines = append(lines, fmt.Sprintf("%-28s baseline %14.0f  measured %14.0f  (%.2fx, tol %.2fx) %s",
			m.Name, m.Baseline, m.Measured, ratio, m.Tol, status))
	}
	return lines, violations
}

func measureQuickSuite() (float64, error) {
	s := bench.NewSuite()
	s.Quick = true
	s.Workers = 1
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

// measureFleetFaultSweep times the quick fleet fault-tolerance sweep —
// the faults×policy matrix exercises quarantine, retry, and deadline
// enforcement end to end, so a structural slowdown in the fleet policy
// layer shows up here rather than in the single-machine metrics.
func measureFleetFaultSweep() (float64, error) {
	s := bench.NewSuite()
	s.Quick = true
	start := time.Now()
	if _, err := s.FleetFaultSweep(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func main() {
	var (
		basePath  = flag.String("baseline", "BENCH_sim.json", "recorded trajectory to compare against")
		timeTol   = flag.Float64("time-tol", 2.5, "wall-clock regression tolerance (multiple of baseline)")
		allocTol  = flag.Float64("alloc-tol", 1.25, "allocs/op regression tolerance (multiple of baseline)")
		skipSuite = flag.Bool("skip-suite", false, "skip the quick figure suite (micro only)")
	)
	flag.Parse()

	base, err := loadBaseline(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if base.HostCPUs != 0 && base.HostCPUs != runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchcheck: note: baseline measured on %d CPU(s), this host has %d — wall-clock comparisons are cross-host-class\n",
			base.HostCPUs, runtime.NumCPU())
	}

	// One whole single-VM run of a data-bound and of a code-bound guest.
	// A baseline that predates machine_run_gcc reads zero and is
	// reported, not failed.
	var ms []metric
	for _, k := range []struct {
		name, workload string
		allocTol       float64
		warm           bool // also measured against a filled translation memo
	}{
		{"machine_run_gzip", "164.gzip", *allocTol, false},
		{"machine_run_gcc", bench.TranslateCorpusWorkload, min(*allocTol, gccAllocTol), true}} {
		fmt.Fprintf(os.Stderr, "benchcheck: measuring %s...\n", k.name)
		r := testing.Benchmark(bench.MachineRunBench(k.workload))
		b := base.Micro[k.name]
		ms = append(ms,
			metric{k.name + " ns/op", float64(b.NsPerOp), float64(r.NsPerOp()), *timeTol},
			metric{k.name + " allocs/op", float64(b.AllocsPerOp), float64(r.AllocsPerOp()), k.allocTol},
			metric{k.name + " bytes/op", float64(b.BytesPerOp), float64(r.AllocedBytesPerOp()), *allocTol})
		if k.warm {
			fmt.Fprintf(os.Stderr, "benchcheck: measuring %s_warm...\n", k.name)
			w := testing.Benchmark(bench.MachineRunWarmBench(k.workload))
			ms = append(ms,
				metric{k.name + "_warm ns/op", float64(base.Micro[k.name+"_warm"].NsPerOp), float64(w.NsPerOp()), *timeTol},
				metric{k.name + "_warm vs cold", float64(r.NsPerOp()), float64(w.NsPerOp()), warmRatio})
		}
	}
	// Translator per-block cost over the 176.gcc corpus. A baseline that
	// predates the entries reads zero and is reported, not failed.
	fmt.Fprintln(os.Stderr, "benchcheck: measuring translate_block_tier1/tier0...")
	for _, tier := range []struct {
		name  string
		tier0 bool
	}{{"translate_block_tier1", false}, {"translate_block_tier0", true}} {
		r := testing.Benchmark(bench.TranslateBlockBench(tier.tier0))
		b := base.Micro[tier.name]
		ms = append(ms,
			metric{tier.name + " ns/block", float64(b.NsPerOp), float64(r.NsPerOp()), *timeTol},
			metric{tier.name + " allocs/block", float64(b.AllocsPerOp), float64(r.AllocsPerOp()), blockAllocTol},
			metric{tier.name + " bytes/block", float64(b.BytesPerOp), float64(r.AllocedBytesPerOp()), blockBytesTol})
	}
	// The kernel's hand-off: a park that must switch goroutines,
	// with a trivial event heap and with an 8×8 fabric's.
	fmt.Fprintln(os.Stderr, "benchcheck: measuring sim_proc_switch/sim_proc_switch_64...")
	for _, k := range []struct {
		name  string
		procs int
	}{{"sim_proc_switch", 2}, {"sim_proc_switch_64", 64}} {
		r := testing.Benchmark(bench.ProcSwitchBench(k.procs))
		ms = append(ms, metric{k.name + " ns/park", float64(base.Micro[k.name].NsPerOp), float64(r.NsPerOp()), *timeTol})
	}
	// The three per-message costs: a Recv entered with accrued local
	// time, a request answered by a handler on the requester's goroutine,
	// and a code-cache fill over the translate corpus.
	fmt.Fprintln(os.Stderr, "benchcheck: measuring sim_tick_recv/sim_handler_dispatch/l1_fill...")
	for _, k := range []struct {
		name, unit string
		f          func(b *testing.B)
	}{{"sim_tick_recv", "ns/recv", bench.TickRecvBench()}, {"sim_handler_dispatch", "ns/round trip", bench.HandlerDispatchBench()},
		{"l1_fill", "ns/fill", bench.L1FillBench()}} {
		r := testing.Benchmark(k.f)
		ms = append(ms, metric{k.name + " " + k.unit, float64(base.Micro[k.name].NsPerOp), float64(r.NsPerOp()), *timeTol})
	}
	if !*skipSuite {
		fmt.Fprintln(os.Stderr, "benchcheck: running quick figure suite (serial)...")
		secs, err := measureQuickSuite()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		ms = append(ms, metric{"quick_suite serial seconds", base.QuickSuite.Serial.Seconds, secs, *timeTol})

		fmt.Fprintln(os.Stderr, "benchcheck: running quick fleet fault-tolerance sweep...")
		ffSecs, err := measureFleetFaultSweep()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		ms = append(ms, metric{"quick_suite fleet_fault seconds", base.QuickSuite.FleetFault.Seconds, ffSecs, *timeTol})

		fmt.Fprintln(os.Stderr, "benchcheck: running fleet_kernel (slot-at-a-time vs interleaved fleet)...")
		fk, err := bench.FleetKernelBench()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		if !fk.Identical {
			fmt.Fprintln(os.Stderr, "benchcheck: fleet_kernel: interleaved fleet result DIVERGED from slot-at-a-time — the kernel's bit-for-bit contract is broken")
			os.Exit(1)
		}
		var baseSwitches float64
		if base.FleetKernel != nil {
			baseSwitches = float64(base.FleetKernel.Switches)
		}
		// Counts, not wall times: the same on any host, so the recorded
		// one is held exactly and the interleaved one measured beside it.
		ms = append(ms,
			metric{"fleet_kernel switches", baseSwitches, float64(fk.Switches), 1},
			metric{"fleet_kernel vs interleaved", float64(fk.InterleavedSwitches), float64(fk.Switches), slotSwitchRatio})

		// Placement sweep: every figure is virtual cycles, so the
		// determinism check and the planner-beats-fixed assertion hold
		// exactly on any host; only the wall clock takes the generous
		// time tolerance.
		fmt.Fprintln(os.Stderr, "benchcheck: running placement sweep (planner vs fixed, oversubscribed fleets)...")
		psw, err := bench.PlacementSweepBench(false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		if !psw.Identical {
			fmt.Fprintln(os.Stderr, "benchcheck: placement_sweep: repeated runs DIVERGED — planner placement broke determinism")
			os.Exit(1)
		}
		for _, g := range psw.Grids {
			if !g.PlannerWins {
				fmt.Fprintf(os.Stderr, "benchcheck: REGRESSION: placement_sweep: planner no longer strictly beats fixed shapes on %s (makespan %d vs %d, utilization %.4f vs %.4f)\n",
					g.Grid, g.Planner.Makespan, g.Fixed.Makespan, g.Planner.Utilization, g.Fixed.Utilization)
				os.Exit(1)
			}
			fmt.Printf("%-28s %s cap %d: makespan fixed %d → planner %d (deterministic)\n",
				"placement_sweep", g.Grid, g.MaxSlots, g.Fixed.Makespan, g.Planner.Makespan)
		}
		var basePlacement float64
		if base.PlacementSweep != nil {
			basePlacement = base.PlacementSweep.Seconds
		}
		ms = append(ms, metric{"placement_sweep seconds", basePlacement, psw.Seconds, *timeTol})
	}

	if !*skipSuite {
		// Daemon-layer throughput: re-run at the baseline's job count
		// so seconds/job is comparable. A baseline file predating the
		// counter has Jobs == 0 — evaluate reports but never fails
		// zero-baseline metrics, so old baselines stay green.
		svcJobs := base.ServiceThroughput.Jobs
		if svcJobs <= 0 {
			svcJobs = 8
		}
		fmt.Fprintln(os.Stderr, "benchcheck: running service throughput (closed-loop daemon layer)...")
		secPerJob, _, err := bench.ServiceThroughputBench(svcJobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		// Sub-second values round to 0 in evaluate's %.0f rendering,
		// so gate on milliseconds per job.
		ms = append(ms, metric{"service_throughput ms/job",
			base.ServiceThroughput.SecondsPerJob * 1e3, secPerJob * 1e3, *timeTol})
	}

	// Tiered-translation cold start: deterministic virtual cycles, so
	// the tolerance is tight (the default time tolerance would hide a
	// real cost-model regression). The hard assertion — tier-0 must be
	// faster to the first 10k retired instructions than the optimizing
	// pipeline alone — holds regardless of the baseline's age.
	fmt.Fprintln(os.Stderr, "benchcheck: measuring tier-0 warmup (cold-start cycles)...")
	wres, err := bench.NewSuite().WarmupBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if wres.Tier0Cycles >= wres.OptCycles {
		fmt.Fprintf(os.Stderr, "benchcheck: REGRESSION: tier-0 warmup %d cycles is not faster than optimizing-only %d\n",
			wres.Tier0Cycles, wres.OptCycles)
		os.Exit(1)
	}
	var baseWarmup float64
	if base.Warmup != nil {
		baseWarmup = float64(base.Warmup.Tier0Cycles)
	}
	ms = append(ms, metric{"warmup tier0 cycles", baseWarmup, float64(wres.Tier0Cycles), 1.10})

	lines, violations := evaluate(ms)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchcheck: REGRESSION:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d metrics within tolerance of %s\n", len(ms), *basePath)
}
