package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/service"
)

type kind int

const (
	kindSpec  kind = iota // each guest alone on the 4x4 machine: core.Run
	kindFleet             // all guests as one fleet on an 8x8 fabric: core.RunFleet
	kindSvc               // jobs through the service daemon engine, closed loop
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	exe      string // this binary, for the shard probe's child; "" skips the probe
}

// bench is one workload being run.
type bench struct {
	opt     options
	kind    kind
	names   []string // guests in pass order (spec, fleet) or job profiles (svc)
	seedOff int64    // added to every profile seed
	tailPct int      // the percentile latency_tail_cu reports
	warmups int      // untimed passes before the timed section

	guests []*guestCase
	svc    *service.Service
	cal    *calibrator

	attempted int
	failed    int
	errs      []string
	fp0       []string // per-guest fingerprints of the first pass
}

// fabric dimensions of the fleet and service workloads.
const fabricW, fabricH = 8, 8

// svcOutstanding is the closed loop's client count: twice the eight slots.
const svcOutstanding = 16

func newBench(opt options) (*bench, error) {
	b := &bench{opt: opt, seedOff: opt.seed, cal: newCalibrator()}
	switch opt.workload {
	case "spec_code":
		// An operation is what a caller waits for: one pass over the guests.
		// (The guests of a pass differ tenfold in run time, so the median of
		// single runs would sit on the edge between two of them and jump.)
		// A run has a handful of passes, so no percentile beyond the median
		// has ten samples behind it and the tail metric repeats the median.
		b.kind, b.names, b.tailPct, b.warmups = kindSpec, codeProfiles, 50, 1
		if opt.smoke {
			b.names = smokeCode
		}
	case "spec_data":
		b.kind, b.names, b.tailPct, b.warmups = kindSpec, dataProfiles, 75, 5
		if opt.smoke {
			b.names = smokeData
		}
	case "fleet_mix":
		// Every guest of a pass returns when RunFleet does: a pass is one
		// operation here too, and a run has a handful of them.
		b.kind, b.names, b.tailPct, b.warmups = kindFleet, fleetOrder(opt.seed, opt.smoke), 50, 1
	case "svc_closed":
		// The service builds its images from workload names, so the seed
		// shapes the job sequence and not the programs.
		b.kind, b.names, b.tailPct, b.warmups = kindSvc, svcProfiles, 90, 1
		b.seedOff = 0
	default:
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.smoke {
		b.warmups = 0
	}
	return b, nil
}

// minOps is the number of operations the timed section must complete so that
// ten samples lie beyond the tail percentile.
func (b *bench) minOps() int {
	if b.opt.smoke || b.tailPct == 50 {
		return 1
	}
	return minSamples(b.tailPct)
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// setup builds the guests and their references and, for the service workload,
// starts the service.
func (b *bench) setup() error {
	gs, err := buildGuests(b.names, b.seedOff)
	if err != nil {
		return err
	}
	b.guests = gs
	if b.kind == kindSvc {
		b.svc, err = service.New(service.Config{Width: fabricW, Height: fabricH, QueueCap: 64})
		if err != nil {
			return fmt.Errorf("service.New: %w", err)
		}
	}
	return nil
}

// teardown stops what setup started.
func (b *bench) teardown() error {
	if b.svc == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.svc.Drain(ctx)
	b.svc = nil
	if err != nil {
		return fmt.Errorf("service drain: %w", err)
	}
	return nil
}

// nominalUnitS is the calibration kernel's usual time on the host the
// benchmark was sized on. setup_s has to be in seconds; it is measured in cu,
// like every host time, and reported as seconds of a host on which one cu is
// nominalUnitS, so that a slow stretch of the host does not read as a slower
// set-up (raw set-up medians of ten runs drifted by 20% within the hour).
const nominalUnitS = 0.080

// timedCU runs f between two samples of the calibration kernel and returns its
// cost in cu and its raw wall time.
func (b *bench) timedCU(f func() error) (costCU, wallS float64, err error) {
	before := b.cal.sample()
	t0 := time.Now()
	err = f()
	wallS = time.Since(t0).Seconds()
	return cu(wallS, (before+b.cal.sample())/2), wallS, err
}

// setupAndWarm sets up reps times, keeping the state of the last repetition,
// then warms up, and returns setup_s: the median set-up plus the warm-up.
func (b *bench) setupAndWarm(reps int) (float64, error) {
	var cus, walls []float64
	for r := 0; r < reps; r++ {
		if r > 0 {
			if err := b.teardown(); err != nil {
				return 0, err
			}
		}
		c, w, err := b.timedCU(b.setup)
		if err != nil {
			return 0, err
		}
		cus, walls = append(cus, c), append(walls, w)
	}
	warmCU, warmS := b.warm()
	note("%s: set-up %.3f s (median of %d) + warm-up %.3f s, raw", b.opt.workload, median(walls), reps, warmS)
	return (median(cus) + warmCU) * nominalUnitS, nil
}

// guestOut is one guest's outcome in a pass. res is nil when the run failed
// to produce a result.
type guestOut struct {
	res      *core.Result
	admitted uint64
	finished uint64
}

// cycles is the guest's own virtual run time.
func (g guestOut) cycles() uint64 { return g.finished - g.admitted }

// passOut is one pass over the workload's guests.
type passOut struct {
	wall   float64   // seconds: the pass is one operation
	cu     float64   // the same in calibration units
	runLat []float64 // seconds, one per core.Run of a solo pass
	guests []guestOut
	vtime  uint64 // virtual cycles the pass took: sum of runs, or the fleet's makespan
	fleet  *core.FleetResult
	spans  []span // traced passes only
	events int
	unpar  int // service-tile spans left without a cause
}

func fingerprint(r *core.Result) string {
	return fmt.Sprintf("%d/%d/%x/%+v", r.Cycles, r.ExitCode, r.StateHash, r.M)
}

// pass runs the guests once and checks every outcome: against the reference,
// and against the first pass, which every later pass must repeat bit for bit.
//
// before is the calibration sample taken just ahead of the pass, and the pass
// returns the one it took last: the host's cost is counted in cu, each stretch
// of work divided by the mean of the samples on either side of it.
func (b *bench) pass(traced bool, before float64) (p *passOut, after float64) {
	// Collect outside the timed intervals: every pass then starts from the
	// same heap, which steadies both its time and the process's peak memory.
	runtime.GC()
	if b.kind == kindSpec {
		p, after = b.specPass(traced, before)
	} else {
		p = b.fleetPass(traced, 0)
		after = b.cal.sample()
		p.cu = cu(p.wall, (before+after)/2)
	}
	first := b.fp0 == nil
	if first {
		b.fp0 = make([]string, len(b.guests))
	}
	for i, g := range p.guests {
		b.attempted++
		if g.res == nil {
			continue // already counted as failed with its cause
		}
		if err := b.guests[i].check(g.res.ExitCode, g.res.Stdout); err != nil {
			b.fail("%v", err)
			continue
		}
		fp := fmt.Sprintf("%s@%d-%d", fingerprint(g.res), g.admitted, g.finished)
		switch {
		case first:
			b.fp0[i] = fp
		case fp != b.fp0[i]:
			b.fail("%s: pass does not repeat the first (traced=%v):\n  %s\n  %s", b.guests[i].name, traced, fp, b.fp0[i])
		}
	}
	return p, after
}

// calibGap is the stretch of solo runs after which the kernel is sampled
// again: the host's speed changes within seconds, and a sample describes only
// the work next to it.
const calibGap = 0.25 // seconds

func (b *bench) specPass(traced bool, before float64) (*passOut, float64) {
	p := &passOut{guests: make([]guestOut, len(b.guests))}
	var stretch float64 // seconds of runs since the last sample
	for i, g := range b.guests {
		cfg := core.DefaultConfig()
		if traced {
			cfg.Tracer = core.NewTracer(0)
		}
		t0 := time.Now()
		res, err := core.Run(g.img, cfg)
		lat := time.Since(t0).Seconds()
		p.runLat = append(p.runLat, lat)
		p.wall += lat // the runs alone: a traced pass's span bookkeeping is not the program's cost
		stretch += lat
		if stretch >= calibGap || i == len(b.guests)-1 {
			after := b.cal.sample()
			p.cu += cu(stretch, (before+after)/2)
			before, stretch = after, 0
		}
		if err != nil {
			b.fail("%s: core.Run: %v", g.name, err)
			continue
		}
		p.guests[i] = guestOut{res: res, finished: res.Cycles}
		p.vtime += res.Cycles
		if traced {
			sp := virtualSpans(cfg.Tracer.Events(), i)
			p.events += cfg.Tracer.Len()
			p.unpar += b.linkSpans(sp)
			p.spans = appendSpans(p.spans, sp)
		}
	}
	return p, before
}

// fleetPass runs the guests as one fleet. workers above 1 asks for the sharded
// event loop; the benchmark's workloads use 0, the default of every binary.
func (b *bench) fleetPass(traced bool, workers int) *passOut {
	p := &passOut{guests: make([]guestOut, len(b.guests))}
	imgs := make([]*guest.Image, len(b.guests))
	for i, g := range b.guests {
		imgs[i] = g.img
	}
	cfg := core.DefaultConfig()
	cfg.Params.Width, cfg.Params.Height = fabricW, fabricH
	cfg.SimWorkers = workers
	if traced {
		cfg.Tracer = core.NewTracer(0)
	}
	t0 := time.Now()
	res, err := core.RunFleet(imgs, cfg, core.FleetConfig{})
	p.wall = time.Since(t0).Seconds()
	if err != nil || res == nil {
		for _, g := range b.guests {
			b.fail("%s: core.RunFleet: %v", g.name, err)
		}
		return p
	}
	p.fleet, p.vtime = res, res.Makespan
	for i, g := range res.Guests {
		if g == nil || g.Status != core.GuestFinished || g.Result == nil {
			b.fail("%s: guest %d did not finish: %v", b.guests[i].name, i, g)
			continue
		}
		p.guests[i] = guestOut{res: g.Result, admitted: g.Admitted, finished: g.Finished}
	}
	if traced {
		sp := virtualSpans(cfg.Tracer.Events(), -1)
		p.events = cfg.Tracer.Len()
		if n := attributeFleet(sp, p.guests); n != len(p.guests) {
			b.fail("traced fleet: %d of %d guests found on the execution tiles' timelines", n, len(p.guests))
		}
		p.unpar = b.linkSpans(sp)
		p.spans = sp
	}
	return p
}

// linkSpans nests the spans of one tracer and links service-tile spans to
// their causes; it returns the number left without one. A lane whose spans
// overlap without nesting breaks the self-time arithmetic, so it is an error.
func (b *bench) linkSpans(sp []span) int {
	if n := nest(sp); n > 0 {
		b.fail("trace: %d spans overlap another span of their tile without nesting", n)
	}
	return linkCausal(sp)
}

// appendSpans appends src, whose Parent indices are local to it, to dst.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// attributeFleet gives the execution-tile spans of a fleet's timeline their
// guest. A slot's execution tile runs its guests one after another and each
// ends with the syscall span in which it exits, so the exits cut the tile's
// lane into one segment per guest; the segment ending at cycle c belongs to
// the guest whose Finished is the first at or after c. It returns the number
// of guests matched.
func attributeFleet(sp []span, guests []guestOut) int {
	lanes := map[int][]int{}
	for i := range sp {
		switch sp[i].Name {
		case "dispatch", "fetch", "exec", "memfill", "syscall", "smc_inval":
			lanes[sp[i].Lane] = append(lanes[sp[i].Lane], i)
		}
	}
	taken := make([]bool, len(guests))
	matched := 0
	for _, idx := range lanes {
		sort.SliceStable(idx, func(a, b int) bool { return sp[idx[a]].End < sp[idx[b]].End })
		segStart := 0
		for k, i := range idx {
			if !sp[i].exited {
				continue
			}
			best := -1
			for gi, g := range guests {
				if taken[gi] || g.res == nil || g.finished < sp[i].End {
					continue
				}
				if best < 0 || g.finished < guests[best].finished {
					best = gi
				}
			}
			if best >= 0 {
				taken[best] = true
				matched++
				for _, j := range idx[segStart : k+1] {
					sp[j].Guest = best
				}
			}
			segStart = k + 1
		}
	}
	return matched
}

// measured is a timed section's raw outcome.
type measured struct {
	sectionCU float64   // host cost in cu of one pass (median), or of the whole closed loop
	sectionS  float64   // the same in raw seconds
	sections  int       // passes measured (1 for the closed loop)
	unitS     float64   // one cu in seconds, as this section saw it (median of its samples)
	opCU      []float64 // latency in cu, one per operation
	insts     uint64    // reference guest instructions per pass (closed loop: of all finished jobs)
	vtime     uint64    // virtual cycles per pass (closed loop: sum of batch makespans)
	slow      []float64 // per-guest slowdown against the Pentium III model
	first     *passOut  // spec and fleet: the first timed pass
	use       hostUse   // resources the section used
	svc       *svcStats
}

// measurePasses runs untraced passes for d and at least minOps operations.
func (b *bench) measurePasses(d time.Duration) *measured {
	m := &measured{}
	for _, g := range b.guests {
		m.insts += g.ref.Insts
	}
	use := readHostUse()
	var walls []float64
	start := time.Now()
	nCal := len(b.cal.samples)
	sample := b.cal.sample()
	for {
		var p *passOut
		p, sample = b.pass(false, sample)
		if m.first == nil {
			m.first = p
			m.vtime = p.vtime
			for i, g := range p.guests {
				if g.res != nil {
					m.slow = append(m.slow, float64(g.cycles())/float64(b.guests[i].ref.Cycles))
				}
			}
		}
		walls = append(walls, p.wall)
		m.opCU = append(m.opCU, p.cu)
		if time.Since(start) >= d && len(m.opCU) >= b.minOps() {
			break
		}
	}
	m.use = readHostUse().sub(use)
	m.sectionCU, m.sectionS, m.sections, m.unitS = median(m.opCU), median(walls), len(walls), median(b.cal.samples[nCal:])
	return m
}

// endToEndMetrics derives the end-to-end metrics from a timed section.
func (b *bench) endToEndMetrics(setupS float64, m *measured) map[string]float64 {
	tail, ok := percentile(m.opCU, b.tailPct)
	if b.tailPct == 50 {
		tail = median(m.opCU)
	} else if !ok {
		// Only a smoke run gets here: the timed section runs until the
		// percentile has its ten samples.
		tail = median(m.opCU)
		note("latency_tail_cu: fewer than %d samples beyond p%d of %d; the median is reported", tailBeyond, b.tailPct, len(m.opCU))
	}
	// The raw seconds behind the cu figures, for a reader; they are not metrics.
	note("%s: section wall %.4f s (median of %d), one cu = %.1f ms, %d operations",
		b.opt.workload, m.sectionS, m.sections, m.unitS*1e3, len(m.opCU))
	return map[string]float64{
		"setup_s":           setupS,
		"slowdown_geomean":  geomean(m.slow),
		"vcycles_per_ginst": ratioF(float64(m.vtime), float64(m.insts)),
		"host_cu_per_minst": ratioF(m.sectionCU, float64(m.insts)/1e6),
		"latency_p50_cu":    median(m.opCU),
		"latency_tail_cu":   tail,
		"peak_rss_mb":       peakRSSMB(),
	}
}

func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
