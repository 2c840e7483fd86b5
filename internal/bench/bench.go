// Package bench regenerates every table and figure of the paper's
// evaluation (§4): it runs the synthetic SpecInt workloads through the
// parallel translator under each virtual-architecture configuration and
// through the Pentium III baseline model, and reports slowdown series
// in the paper's format. Results are cached within a Suite so figures
// sharing configurations do not re-run.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/pentium"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// Suite runs and caches experiments.
type Suite struct {
	profiles []workload.Profile
	images   map[string]*guest.Image
	base     map[string]*pentium.Result
	runs     map[string]*core.Result
	// memo holds the translations of the suite's images: a sweep runs
	// each benchmark under dozens of configurations, and all of them
	// translate the same blocks of the same image (core.Config.Memo).
	// Shared by RunParallel's workers; results are unchanged by it.
	memo *translate.Memo
	// Quick subsamples the benchmark list (for smoke tests).
	Quick bool
	// Workers is the worker-pool width for RunParallel prefetches;
	// values <= 1 keep every run on the serial path.
	Workers int
	// Progress, if set, receives one line per fresh run.
	Progress func(string)
}

// NewSuite builds a suite over all 11 profiles.
func NewSuite() *Suite {
	return &Suite{
		profiles: workload.Profiles(),
		images:   map[string]*guest.Image{},
		base:     map[string]*pentium.Result{},
		runs:     map[string]*core.Result{},
		memo:     translate.NewMemo(),
	}
}

// Benchmarks returns the benchmark names the suite runs over.
func (s *Suite) Benchmarks() []string {
	names := workload.Names()
	if s.Quick {
		return []string{"164.gzip", "176.gcc", "181.mcf"}
	}
	return names
}

func (s *Suite) image(name string) *guest.Image {
	img, ok := s.images[name]
	if !ok {
		p, found := workload.ByName(name)
		if !found {
			panic("bench: unknown benchmark " + name)
		}
		img = p.Build()
		s.images[name] = img
	}
	return img
}

// Baseline returns the Pentium III model result for a benchmark.
func (s *Suite) Baseline(name string) (*pentium.Result, error) {
	if r, ok := s.base[name]; ok {
		return r, nil
	}
	r, err := pentium.Run(s.image(name), pentium.DefaultParams(), 0)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w", name, err)
	}
	s.base[name] = r
	return r, nil
}

// Run executes a benchmark under a configuration (cached by id).
func (s *Suite) Run(name, cfgID string, cfg core.Config) (*core.Result, error) {
	key := name + "|" + cfgID
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	cfg.Memo = s.memo
	r, err := core.Run(s.image(name), cfg)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", name, cfgID, err)
	}
	// Cross-check functional correctness against the baseline run.
	b, err := s.Baseline(name)
	if err != nil {
		return nil, err
	}
	if r.ExitCode != b.ExitCode || r.Stdout != b.Stdout {
		return nil, fmt.Errorf("%s under %s: translator output diverged (exit %d vs %d)",
			name, cfgID, r.ExitCode, b.ExitCode)
	}
	s.runs[key] = r
	if s.Progress != nil {
		s.Progress(fmt.Sprintf("%-12s %-22s %12d cycles", name, cfgID, r.Cycles))
	}
	return r, nil
}

// Slowdown returns CyclesOnTranslator / CyclesOnPentiumIII.
func (s *Suite) Slowdown(name, cfgID string, cfg core.Config) (float64, error) {
	r, err := s.Run(name, cfgID, cfg)
	if err != nil {
		return 0, err
	}
	b, err := s.Baseline(name)
	if err != nil {
		return 0, err
	}
	return float64(r.Cycles) / float64(b.Cycles), nil
}

// Series is one labeled line/bar group of a figure.
type Series struct {
	Label  string
	Values []float64 // aligned with Figure.Benchmarks
}

// Figure is a regenerated table/figure.
type Figure struct {
	Name       string
	Title      string
	Metric     string
	Benchmarks []string
	Series     []Series
	Notes      string
}

// String renders the figure as an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "metric: %s\n", f.Metric)
	width := 12
	for _, s := range f.Series {
		if len(s.Label) > width {
			width = len(s.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%12s", shortName(name))
	}
	fmt.Fprintln(&b)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-*s", width+2, s.Label)
		for _, v := range s.Values {
			switch {
			case v == 0:
				fmt.Fprintf(&b, "%12s", "-")
			case 0 < v && v < 0.01:
				// Too small for two decimals; a negative value keeps its
				// sign in them.
				fmt.Fprintf(&b, "%12.2e", v)
			default:
				fmt.Fprintf(&b, "%12.2f", v)
			}
		}
		fmt.Fprintln(&b)
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Notes)
	}
	return b.String()
}

func shortName(full string) string {
	if i := strings.IndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// sweep runs a set of configurations over all benchmarks and collects
// one value per (config, benchmark).
func (s *Suite) sweep(configs []namedConfig, metric func(*core.Result, *pentium.Result) float64) ([]Series, error) {
	benches := s.Benchmarks()
	jobs := make([]RunJob, 0, len(configs)*len(benches))
	for _, nc := range configs {
		for _, bench := range benches {
			jobs = append(jobs, RunJob{Bench: bench, CfgID: nc.label, Cfg: nc.cfg})
		}
	}
	if err := s.RunParallel(jobs); err != nil {
		return nil, err
	}
	out := make([]Series, len(configs))
	for ci, nc := range configs {
		out[ci].Label = nc.label
		out[ci].Values = make([]float64, len(benches))
		for bi, bench := range benches {
			r, err := s.Run(bench, nc.label, nc.cfg)
			if err != nil {
				return nil, err
			}
			b, err := s.Baseline(bench)
			if err != nil {
				return nil, err
			}
			out[ci].Values[bi] = metric(r, b)
		}
	}
	return out, nil
}

type namedConfig struct {
	label string
	cfg   core.Config
}

func slowdownMetric(r *core.Result, b *pentium.Result) float64 {
	return float64(r.Cycles) / float64(b.Cycles)
}

// sortedKeys is a test helper exposing cached run keys.
func (s *Suite) sortedKeys() []string {
	keys := make([]string, 0, len(s.runs))
	for k := range s.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
