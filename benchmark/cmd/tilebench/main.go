// Command tilebench is the repository's benchmark: four workloads over the
// tile machine, end-to-end metrics on two clocks (virtual cycles, and host time
// in calibration units), per-layer probes and a traced run. See
// benchmark/README.md.
//
// The benchmark compiles only against the engine's long-lived entry points
// (the list is in the README), so that deleting a mechanism elsewhere in the
// repository never needs an edit here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// note prints a diagnostic to standard error; standard output carries only
// the metric lines and the result object.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tilebench: "+format+"\n", args...)
}

// metricValue is one entry of the result object's metrics.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// warm runs the warm-up: passes, or one round of jobs through the service. It
// lets the Go heap and the engine's message pools reach their working size;
// the machine itself keeps nothing between runs. Its cost counts as set-up.
func (b *bench) warm() (costCU, wallS float64) {
	if b.warmups == 0 {
		return 0, 0
	}
	if b.kind == kindSvc {
		for i := 0; i < b.warmups; i++ {
			m := b.closedLoop(newJobSequence(b.opt.seed-1, len(b.guests)), 0, svcOutstanding)
			costCU, wallS = costCU+m.sectionCU, wallS+m.sectionS
		}
		return costCU, wallS
	}
	sample := b.cal.sample()
	for i := 0; i < b.warmups; i++ {
		var p *passOut
		p, sample = b.pass(false, sample)
		costCU, wallS = costCU+p.cu, wallS+p.wall
	}
	return costCU, wallS
}

// measure runs the workload's timed section.
func (b *bench) measure(d time.Duration) *measured {
	if b.kind == kindSvc {
		return b.closedLoop(newJobSequence(b.opt.seed, len(b.guests)), d, b.minOps())
	}
	return b.measurePasses(d)
}

// setupReps is how often a --trace 0 run sets up, to report a median.
const setupReps = 3

// runWorkload is one run of one workload: the unit the driver invokes.
func runWorkload(opt options) (*result, error) {
	// The serial event loop hands control from tile goroutine to tile
	// goroutine over channels. On one P every hand-off is a same-thread
	// switch; with more, the Go scheduler's work stealing turns a varying
	// share of them into cross-thread wake-ups, and the same code measured
	// 18% slower and three times as noisy on this 2-CPU host. One P measures
	// the program's own cost. (The shard probe's children keep all CPUs.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	d := time.Duration(opt.seconds * float64(time.Second))
	var vals map[string]float64
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		if vals, err = b.tracedRun(d); err != nil {
			return nil, err
		}
	} else {
		reps := setupReps
		if opt.smoke {
			reps = 1
		}
		setupS, err := b.setupAndWarm(reps)
		if err != nil {
			return nil, err
		}
		vals = b.endToEndMetrics(setupS, b.measure(d))
	}
	if err := b.teardown(); err != nil {
		return nil, err
	}
	for _, e := range b.errs {
		note("FAILED: %s", e)
	}
	res := &result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{vals[def.Name], def.Unit}
	}
	return res, nil
}

// printResult prints one line per metric, "workload metric value unit", and
// then the result object.
func printResult(workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	flag.Int64Var(&opt.seed, "seed", 0, "added to every profile seed; seeds the fleet's arrival order and the job sequence (0 = the canonical profiles)")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and the spans file")
	flag.BoolVar(&opt.smoke, "smoke", false, "smoke-sized workloads: one short pass, 16 jobs")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for results.json and the spans files")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric against its bound")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	calibrate := flag.Bool("calibrate", false, "internal: sample the calibration kernel until standard input ends")
	shardWorkers := flag.Int("shard-child", 0, "internal: run the fleet once on the sharded loop with this many workers and print a digest")
	flag.Parse()
	opt.trace = trace != 0
	if exe, err := os.Executable(); err == nil {
		opt.exe = exe
	}

	switch {
	case *calibrate:
		calibrateMain()
	case *printManifest:
		b, err := manifest()
		if err != nil {
			die(err)
		}
		os.Stdout.Write(b)
	case *shardWorkers > 0:
		rep, err := shardChild(opt, *shardWorkers)
		if err != nil {
			die(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			die(err)
		}
	case *selfcheck || opt.workload == "":
		if opt.exe == "" {
			die(fmt.Errorf("cannot find this binary to start the workloads' processes"))
		}
		run := suite
		if *selfcheck {
			run = selfCheck
		}
		if !run(opt) {
			os.Exit(1)
		}
	default:
		// A hang must become a failed run, not a stuck benchmark.
		limit := time.Duration(5 * (opt.seconds + 10) * float64(time.Second))
		if limit > workloadLimit {
			limit = workloadLimit
		}
		time.AfterFunc(limit, func() {
			note("watchdog: %s still running after %v", opt.workload, limit)
			os.Exit(3)
		})
		res, err := runWorkload(opt)
		if err != nil {
			die(err)
		}
		if err := printResult(opt.workload, res); err != nil {
			die(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// workloadLimit is the longest any one workload process may run.
const workloadLimit = 170 * time.Second

func die(err error) {
	note("%v", err)
	os.Exit(2)
}
