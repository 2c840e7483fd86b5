package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tilevm/internal/core"
	"tilevm/internal/pentium"
)

// RunJob names one (benchmark, configuration) simulation for
// RunParallel. CfgID is the Run cache key, so a job and a later serial
// Run with the same id share the result.
type RunJob struct {
	Bench string
	CfgID string
	Cfg   core.Config
}

// RunParallel executes the given jobs across Suite.Workers OS threads
// and fills the run cache, so subsequent Run/Slowdown calls for the
// same keys are hits. Every simulation is an isolated engine over a
// read-only guest image, which makes concurrent runs race-free; the
// suite's own caches are only written here, from the coordinating
// goroutine, in job order — so cache contents, cross-check outcomes,
// Progress lines, and the first reported error are all identical to
// running the jobs serially. With Workers <= 1 it is a no-op (the
// serial path computes on demand).
func (s *Suite) RunParallel(jobs []RunJob) error {
	if s.Workers <= 1 || len(jobs) == 0 {
		return nil
	}
	// Drop cached and duplicate jobs, preserving first-appearance order.
	pending := make([]RunJob, 0, len(jobs))
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Bench + "|" + j.CfgID
		if _, ok := s.runs[key]; ok || seen[key] {
			continue
		}
		seen[key] = true
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return nil
	}

	// Build guest images up front (serially: the image cache is shared
	// mutable state). Afterwards images are read-only — guest.Load
	// copies them into each engine's fresh memory.
	var needBase []string
	baseSeen := map[string]bool{}
	for _, j := range pending {
		s.image(j.Bench)
		if _, ok := s.base[j.Bench]; !ok && !baseSeen[j.Bench] {
			baseSeen[j.Bench] = true
			needBase = append(needBase, j.Bench)
		}
	}

	// pool fans f over n items with an atomic work counter; items are
	// claimed in index order but may complete in any order.
	pool := func(n int, f func(i int)) {
		w := s.Workers
		if w > n {
			w = n
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					f(i)
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: missing Pentium III baselines, one per unique benchmark.
	baseRes := make([]*pentium.Result, len(needBase))
	baseErr := make([]error, len(needBase))
	pool(len(needBase), func(i int) {
		baseRes[i], baseErr[i] = pentium.Run(s.images[needBase[i]], pentium.DefaultParams(), 0)
	})
	for i, name := range needBase {
		if baseErr[i] != nil {
			return fmt.Errorf("baseline %s: %w", name, baseErr[i])
		}
		s.base[name] = baseRes[i]
	}

	// Phase 2: the translator runs.
	res := make([]*core.Result, len(pending))
	errs := make([]error, len(pending))
	pool(len(pending), func(i int) {
		cfg := pending[i].Cfg
		cfg.Memo = s.memo
		res[i], errs[i] = core.Run(s.images[pending[i].Bench], cfg)
	})

	// Deterministic assembly: merge in job order, mirroring Run.
	for i, j := range pending {
		if errs[i] != nil {
			return fmt.Errorf("%s under %s: %w", j.Bench, j.CfgID, errs[i])
		}
		r, b := res[i], s.base[j.Bench]
		if r.ExitCode != b.ExitCode || r.Stdout != b.Stdout {
			return fmt.Errorf("%s under %s: translator output diverged (exit %d vs %d)",
				j.Bench, j.CfgID, r.ExitCode, b.ExitCode)
		}
		s.runs[j.Bench+"|"+j.CfgID] = r
		if s.Progress != nil {
			s.Progress(fmt.Sprintf("%-12s %-22s %12d cycles", j.Bench, j.CfgID, r.Cycles))
		}
	}
	return nil
}
