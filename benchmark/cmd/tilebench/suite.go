package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// runChild runs one workload in a process of its own, under a watchdog, and
// parses the result object from the last line of its output.
func runChild(opt options, workload string, trace int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadLimit+10*time.Second)
	defer cancel()
	args := []string{"-workload", workload, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace), "-out", opt.outDir}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, opt.exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, fmt.Errorf("%s (trace %d): no result: %w", workload, trace, err)
	}
	// A child that printed a result and still exited non-zero had failed
	// operations; the result says so.
	return &res, nil
}

// suiteResult is results.json: per workload, the untraced and the traced run.
type suiteResult struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*wlRuns `json:"workloads"`
}

type wlRuns struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

// runSuite runs every workload, untraced and (if traced) traced, each in its
// own process, printing one line per metric. ok is false if any run produced
// no result or had a failed operation.
func runSuite(opt options, traced bool) (sr *suiteResult, ok bool) {
	sr = &suiteResult{Seed: opt.seed, Seconds: opt.seconds, Workloads: map[string]*wlRuns{}}
	ok = true
	for _, w := range workloadDefs {
		runs := &wlRuns{}
		sr.Workloads[w.Name] = runs
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !traced {
				break
			}
			res, err := runChild(opt, w.Name, trace)
			if err != nil {
				note("%v", err)
				ok = false
				continue
			}
			defs := endToEnd
			if trace == 1 {
				defs, runs.PerLayer = perLayer, res
			} else {
				runs.EndToEnd = res
			}
			for _, d := range defs {
				fmt.Printf("%s %s %v %s\n", w.Name, d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
			fmt.Printf("%s attempted %d failed %d correct %v\n", w.Name, res.Attempted, res.Failed, res.Correct)
			ok = ok && res.Correct
		}
	}
	return sr, ok
}

// suite is the one command: every workload, every metric, results.json.
func suite(opt options) bool {
	sr, ok := runSuite(opt, true)
	b, err := json.MarshalIndent(sr, "", "  ")
	if err == nil {
		if err = os.MkdirAll(opt.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(opt.outDir, "results.json"), append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		note("results.json: %v", err)
		return false
	}
	return ok
}

// comparePair judges one end-to-end metric of two runs of the same code and
// seed. A model metric is exact for a seed and must agree to the last digit,
// whatever bound BENCHMARK.json gives it across seeds; for the others either
// set may be the slower one.
func comparePair(def metricDef, a, b float64) (verdict string, ok bool) {
	if def.Source == "model" {
		if a != b {
			return "DIFFERS (must be exact)", false
		}
		return "exact", true
	}
	apart := math.Abs(a-b) / a
	if apart > def.Bound {
		return fmt.Sprintf("%.1f%% apart > bound", 100*apart), false
	}
	return fmt.Sprintf("%.1f%% apart", 100*apart), true
}

// selfCheck runs the suite twice (sets A and B) and prints every end-to-end
// metric side by side with its bound. It passes if every pair agrees within
// the bound, every virtual metric is identical and nothing failed.
func selfCheck(opt options) bool {
	a, okA := runSuite(opt, false)
	b, okB := runSuite(opt, false)
	ok := okA && okB
	fmt.Printf("%-11s %-18s %14s %14s %6s  %s\n", "workload", "metric", "A", "B", "bound", "verdict")
	for _, w := range workloadDefs {
		ra, rb := a.Workloads[w.Name].EndToEnd, b.Workloads[w.Name].EndToEnd
		if ra == nil || rb == nil {
			fmt.Printf("%-11s no result\n", w.Name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			verdict, good := comparePair(d, va, vb)
			ok = ok && good
			fmt.Printf("%-11s %-18s %14.6g %14.6g %6.2f  %s\n", w.Name, d.Name, va, vb, d.Bound, verdict)
		}
		fmt.Printf("%-11s %-18s %14d %14d %6s  failed operations\n", w.Name, "failed", ra.Failed, rb.Failed, "0")
	}
	if ok {
		fmt.Println("selfcheck: PASS")
	} else {
		fmt.Println("selfcheck: FAIL")
	}
	return ok
}
