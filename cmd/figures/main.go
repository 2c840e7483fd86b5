// Command figures regenerates the paper's evaluation: every figure and
// table of §4, plus the headline slowdown band, the §4.5 loss analysis,
// and the beyond-the-paper ablations.
//
//	figures                 # everything (several minutes)
//	figures -fig 4          # one figure
//	figures -quick          # 3-benchmark smoke subset
//	figures -progress       # narrate runs as they complete
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"tilevm/internal/bench"
	"tilevm/internal/core"
	"tilevm/internal/workload"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (4-11; 0 = all)")
		quick      = flag.Bool("quick", false, "run a 3-benchmark subset")
		progress   = flag.Bool("progress", false, "print each run as it completes")
		ablation   = flag.Bool("ablations", false, "also run design-choice ablations")
		whatif     = flag.Bool("whatif", false, "also run the §4.5 hardware-assist what-if analysis")
		util       = flag.String("utilization", "", "print per-tile utilization for a benchmark (e.g. 176.gcc)")
		fleet      = flag.Bool("fleet", false, "also run the N-guest fleet scheduler sweep (4x4/8x8/16x16 fabrics; fixed and planner placement)")
		fleetFault = flag.Bool("fleetfault", false, "also run the fleet fault-tolerance sweep (quarantine/retry/deadline policies)")
		faultsw    = flag.Bool("faultsweep", false, "also run the graceful-degradation fault sweep")
		asJSON     = flag.Bool("json", false, "emit figures as JSON instead of text tables")
		tracePath  = flag.String("trace", "", "instead of figures, write a Chrome trace_event JSON timeline of one default-config run to this file")
		traceEvery = flag.Uint64("trace-interval", 0, "also sample hit rates and per-tile occupancy every N cycles into <trace>.csv (requires -trace)")
		traceWl    = flag.String("trace-workload", "164.gzip", "workload for the -trace run")
		workers    = flag.Int("j", runtime.NumCPU(), "worker pool width for independent simulations (1 = serial)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Fail fast on a bad invocation — one line, non-zero exit — before
	// any simulation starts.
	if *fig != 0 && (*fig < 4 || *fig > 11) {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %d (want 4-11)\n", *fig)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "figures: -j %d: want at least one worker\n", *workers)
		os.Exit(2)
	}
	if *traceEvery != 0 && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "figures: -trace-interval requires -trace (the sampler writes next to the trace file)")
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
			}
		}()
	}

	if *tracePath != "" {
		if err := traceRun(*traceWl, *tracePath, *traceEvery); err != nil {
			die(err)
		}
		return
	}

	s := bench.NewSuite()
	s.Quick = *quick
	s.Workers = *workers
	if *progress {
		s.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	type job struct {
		n   int
		run func() (fmt.Stringer, error)
	}
	jobs := []job{
		{4, func() (fmt.Stringer, error) { return s.Figure4() }},
		{5, func() (fmt.Stringer, error) { return s.Figure5() }},
		{6, func() (fmt.Stringer, error) { return s.Figure6() }},
		{7, func() (fmt.Stringer, error) { return s.Figure7() }},
		{8, func() (fmt.Stringer, error) { return s.Figure8() }},
		{9, func() (fmt.Stringer, error) { return s.Figure9() }},
		{10, func() (fmt.Stringer, error) { return s.Figure10() }},
		{11, func() (fmt.Stringer, error) { return s.Figure11() }},
	}

	collected := map[string]any{}
	for _, j := range jobs {
		if *fig != 0 && *fig != j.n {
			continue
		}
		out, err := j.run()
		if err != nil {
			die(fmt.Errorf("figure %d: %w", j.n, err))
		}
		if *asJSON {
			collected[fmt.Sprintf("figure%d", j.n)] = out
		} else {
			fmt.Println(out.String())
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			die(err)
		}
		return
	}
	if *fig == 0 {
		head, err := s.Headline()
		if err != nil {
			die(err)
		}
		fmt.Println(head)
		loss, err := s.LossAnalysis()
		if err != nil {
			die(err)
		}
		fmt.Println(loss)
	}
	if *ablation {
		ab, err := s.Ablations()
		if err != nil {
			die(err)
		}
		fmt.Println(ab.String())
	}
	if *whatif {
		f, err := s.HardwareWhatIf()
		if err != nil {
			die(err)
		}
		fmt.Println(f.String())
	}
	if *fleet {
		out, err := s.FleetSweep()
		if err != nil {
			die(err)
		}
		fmt.Println(out)
	}
	if *fleetFault {
		out, err := s.FleetFaultSweep()
		if err != nil {
			die(err)
		}
		fmt.Println(out)
	}
	if *faultsw {
		f, err := s.FaultSweep()
		if err != nil {
			die(err)
		}
		fmt.Println(f.String())
	}
	if *util != "" {
		out, err := s.Utilization(*util)
		if err != nil {
			die(err)
		}
		fmt.Println(out)
	}
}

// traceRun executes one default-config run of the named workload with
// the virtual-time tracer attached and writes the Chrome trace JSON
// (and, when interval sampling is on, the CSV time series next to it).
func traceRun(wlName, path string, interval uint64) error {
	p, ok := workload.ByName(wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %v)", wlName, workload.Names())
	}
	trc := core.NewTracer(interval)
	cfg := core.DefaultConfig()
	cfg.Tracer = trc
	res, err := core.Run(p.Build(), cfg)
	if err != nil {
		return err
	}
	csvPath, err := trc.WriteFiles(path)
	if err != nil {
		return err
	}
	fmt.Printf("trace     : %s (%d events, %d cycles)\n", path, trc.Len(), res.Cycles)
	if csvPath != "" {
		fmt.Printf("samples   : %s (%d windows of %d cycles)\n", csvPath, trc.Windows(), interval)
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
