package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// execLane names the spans of an execution tile's own lane.
var execLane = map[string]bool{"dispatch": true, "fetch": true, "exec": true, "memfill": true, "syscall": true, "smc_inval": true}

// modelMetrics fills in the per-layer metrics that are counts of the model:
// they come from the pass's results and repeat exactly for a seed.
func modelMetrics(out map[string]float64, guests []*guestCase, p *passOut) {
	var tr, demand, wasted, l1l, l1h, l15l, l15h, l2a, l2m, flushes, chains uint64
	var disp, hostInsts, refInsts, tlb, dl1a, dl1m, l2dr, l2dm uint64
	var busy, tileCycles, admitted, finished uint64
	n := 0
	for i, g := range p.guests {
		if g.res == nil {
			continue
		}
		n++
		m := &g.res.M
		tr += m.Translations
		demand += m.DemandMisses
		wasted += m.SpecWasted
		l1l += m.L1CLookups
		l1h += m.L1CHits
		l15l += m.L15Lookups
		l15h += m.L15Hits
		l2a += m.L2CAccess
		l2m += m.L2CMisses
		flushes += m.L1CFlushes
		chains += m.Chains
		disp += m.BlockDispatches
		hostInsts += m.HostInsts
		refInsts += guests[i].ref.Insts
		tlb += m.TLBMisses
		dl1a += m.DL1Accesses
		dl1m += m.DL1Misses
		l2dr += m.L2DRequests
		l2dm += m.L2DMisses
		admitted += g.admitted
		finished += g.finished
		for _, tb := range g.res.TileBusy { // a solo run's own machine
			busy += tb
		}
		tileCycles += uint64(len(g.res.TileBusy)) * g.res.Cycles
	}
	if p.fleet != nil { // one shared fabric
		busy, tileCycles = 0, uint64(len(p.fleet.TileBusy))*p.fleet.Makespan
		for _, tb := range p.fleet.TileBusy {
			busy += tb
		}
		out["core.fleet_makespan_vcycles"] = float64(p.fleet.Makespan)
		out["core.fleet_turnaround_vcycles"] = ratio(finished, uint64(n))
		out["core.fleet_queue_wait_vcycles"] = ratio(admitted, uint64(n))
	}
	out["translate.blocks"] = float64(tr)
	out["translate.demand_misses"] = float64(demand)
	out["translate.spec_wasted_share"] = ratio(wasted, tr)
	out["codecache.l1_hit_rate"] = ratio(l1h, l1l)
	out["codecache.l15_hit_rate"] = ratio(l15h, l15l)
	out["codecache.l2_miss_rate"] = ratio(l2m, l2a)
	out["codecache.l1_flushes"] = float64(flushes)
	out["codecache.chains"] = float64(chains)
	out["core.vcycles"] = float64(p.vtime)
	out["core.dispatches"] = float64(disp)
	out["core.host_insts_per_guest_inst"] = ratio(hostInsts, refInsts)
	out["core.tile_util"] = ratio(busy, tileCycles)
	out["mmu.tlb_misses"] = float64(tlb)
	out["dcache.dl1_miss_rate"] = ratio(dl1m, dl1a)
	out["dcache.l2d_miss_rate"] = ratio(l2dm, l2dr)
}

// spanMetrics fills in the metrics read off the traced pass's spans: busy
// time of the service tiles and the split of the guests' cycles by what the
// execution tile was doing. It returns an error if the self times do not add
// up to the execution tiles' top-level spans.
func spanMetrics(out map[string]float64, p *passOut) error {
	var guestCycles uint64
	for _, g := range p.guests {
		if g.res != nil {
			guestCycles += g.cycles()
		}
	}
	busy := map[string]uint64{}
	self := map[string]uint64{}
	var selfSum, roots uint64
	for i := range p.spans {
		s := &p.spans[i]
		busy[s.Name] += s.dur()
		if !execLane[s.Name] {
			continue
		}
		self[s.Name] += s.Self
		selfSum += s.Self
		if s.Parent < 0 {
			roots += s.dur()
		}
	}
	out["translate.vc_busy"] = float64(busy["translate"])
	out["mmu.vc_busy"] = float64(busy["mmu"])
	out["dcache.vc_bank_busy"] = float64(busy["bank"])
	out["core.vc_fetch_share"] = ratio(self["fetch"], guestCycles)
	out["core.vc_exec_share"] = ratio(self["exec"], guestCycles)
	out["core.vc_memfill_share"] = ratio(self["memfill"], guestCycles)
	out["core.vc_syscall_share"] = ratio(self["syscall"], guestCycles)
	out["core.vc_dispatch_self_share"] = ratio(self["dispatch"], guestCycles)
	out["core.vc_uncovered_share"] = 1 - ratio(roots, guestCycles)
	out["trace.events"] = float64(p.events)
	out["trace.unparented_spans"] = float64(p.unpar)
	if selfSum != roots {
		return fmt.Errorf("trace: execution-tile self times sum to %d cycles, their top-level spans to %d", selfSum, roots)
	}
	if roots > guestCycles {
		return fmt.Errorf("trace: execution-tile spans cover %d cycles, the guests ran %d", roots, guestCycles)
	}
	return nil
}

// tracedRun is a --trace 1 run: a shorter untraced section for the host-side
// baselines, then one traced pass, the flat loops, the sim kernels and (on
// fleet_mix) the shard probe. It returns every per-layer metric.
func (b *bench) tracedRun(d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, def := range perLayer {
		out[def.Name] = 0
	}
	if _, err := b.setupAndWarm(1); err != nil {
		return nil, err
	}
	var buildS, refS float64
	var refInsts uint64
	for _, g := range distinct(b.guests) {
		buildS += g.buildS
		refS += g.refS
		refInsts += g.ref.Insts
	}
	out["workload.build_ms"] = buildS * 1e3
	out["pentium.ref_kips"] = ratioF(float64(refInsts)/1e3, refS)

	m := b.measure(d / 2)
	passes := float64(m.sections)
	out["host.pass_wall_s"] = m.sectionS
	out["host.calib_s"] = m.unitS
	out["host.guest_kips"] = ratioF(float64(m.insts)/1e3, m.sectionS)
	out["host.alloc_mb"] = float64(m.use.allocB) / (1 << 20) / passes
	out["host.mallocs"] = float64(m.use.mallocs) / passes
	out["host.gc_cycles"] = float64(m.use.gcs) / passes
	out["host.cpu_s"] = m.use.cpuS / passes
	out["sim.host_ns_per_vcycle"] = ratioF(m.sectionS*1e9, float64(m.vtime))
	out["latency.samples"] = float64(len(m.opCU))
	out["latency.tail_pct"] = float64(b.tailPct)

	// The pass that is traced: the workload's own, or for the service a
	// fleet shaped like one of its batches.
	pb, untracedCU, first := b, m.sectionCU, m.first
	if b.kind == kindSvc {
		s := m.svc
		out["service.queue_wait_p50_ms"] = median(s.queueWaitS) * 1e3
		out["service.run_p50_ms"] = median(s.runS) * 1e3
		out["service.batches"] = float64(s.batches)
		out["service.mean_batch_size"] = ratioF(float64(s.finished), float64(s.batches))
		out["service.shed"] = float64(s.shed)
		out["service.rejected"] = float64(s.rejected)
		if err := b.teardown(); err != nil {
			return nil, err
		}
		var err error
		if pb, err = b.batchBench(); err != nil {
			return nil, err
		}
		defer func() {
			b.attempted += pb.attempted
			b.failed += pb.failed
			b.errs = append(b.errs, pb.errs...)
		}()
		var second *passOut
		var sample float64
		first, sample = pb.pass(false, b.cal.sample())
		second, _ = pb.pass(false, sample)
		untracedCU = (first.cu + second.cu) / 2
	}
	modelMetrics(out, pb.guests, first)

	// The traced pass is checked against the untraced first pass, cycle for
	// cycle, like any other pass.
	tp, _ := pb.pass(true, b.cal.sample())
	out["trace.overhead_share"] = ratioF(tp.cu, untracedCU) - 1
	if err := spanMetrics(out, tp); err != nil {
		pb.fail("%v", err)
	}
	spans := tp.spans
	// The traced pass's calls into core, back to back on the host clock.
	if pb.kind == kindSpec {
		var at float64
		for i, l := range tp.runLat {
			spans = append(spans, span{Name: "core.Run", Clock: "ns", Lane: hostLanePass, Guest: i,
				Start: uint64(at * 1e9), End: uint64((at + l) * 1e9), Parent: -1})
			at += l
		}
	} else {
		spans = append(spans, span{Name: "core.RunFleet", Clock: "ns", Lane: hostLanePass, Guest: -1,
			End: uint64(tp.wall * 1e9), Parent: -1})
	}

	spans = appendSpans(spans, pb.flatLoops(out, first, untracedCU))
	t0 := time.Now() // the epoch of the remaining probes' spans
	spans = append(spans, pb.simKernels(out, t0)...)
	if b.kind == kindFleet && b.opt.exe != "" {
		spans = append(spans, b.shardProbe(out, first, m.sectionS, t0)...)
	}
	out["host.calib_samples"] = float64(len(b.cal.samples))

	if b.opt.outDir != "" {
		var names []string
		for _, g := range pb.guests {
			names = append(names, g.name)
		}
		if err := os.MkdirAll(b.opt.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(b.opt.outDir, b.opt.workload+".spans.json")
		if err := writeSpans(path, b.opt.workload, b.opt.seed, names, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		note("spans written to %s", path)
	}
	return out, nil
}

// batchBench is the fleet the service workload traces: the service accepts no
// tracer, so its first batch's jobs are run directly through core.RunFleet.
func (b *bench) batchBench() (*bench, error) {
	seq := newJobSequence(b.opt.seed, len(b.guests))
	batch := svcOutstanding / 2
	if b.opt.smoke {
		batch = 4
	}
	var names []string
	for i := 0; i < batch; i++ {
		names = append(names, b.guests[seq.next().profile].name)
	}
	pb := &bench{opt: b.opt, kind: kindFleet, names: names, cal: b.cal}
	return pb, pb.setup()
}

// flatLoops runs the flat loop over every distinct guest, untraced for the
// unit costs and traced for the spans, and fills in the translator's and the
// executor's metrics. Their shares of a pass are taken in cu, each loop against
// the kernel samples around it, because the pass was timed at another moment.
func (b *bench) flatLoops(out map[string]float64, first *passOut, passCU float64) []span {
	var spans []span
	var blocks, codeInsts int
	var decodeS, translateS, execS, trHostCU, exHostCU float64
	var flatInsts uint64
	seen := map[*guestCase]bool{}
	sample := b.cal.sample()
	for gi, g := range b.guests {
		if seen[g] {
			continue
		}
		seen[g] = true
		fo, err := flatLoop(g, gi, false)
		before := sample
		sample = b.cal.sample()
		unit := (before + sample) / 2
		if err != nil {
			b.fail("%v", err)
			continue
		}
		ft, err := flatLoop(g, gi, true)
		if err != nil {
			b.fail("%v", err)
			continue
		}
		if n := nest(ft.spans); n > 0 {
			b.fail("%s: %d flat-loop spans overlap without nesting", g.name, n)
		}
		spans = appendSpans(spans, ft.spans)
		blocks += fo.blocks
		codeInsts += fo.codeInsts
		decodeS += fo.decodeS
		translateS += fo.translateS
		execS += fo.execS
		flatInsts += fo.hostInsts
		// Every run of this image in the pass translated and retired the
		// same work; weigh the flat loop's unit costs by the machine's counts.
		for j, pg := range b.guests {
			if pg != g || first.guests[j].res == nil {
				continue
			}
			mm := &first.guests[j].res.M
			if mm.HostInsts != fo.hostInsts || ft.hostInsts != fo.hostInsts {
				b.fail("%s: flat loop retired %d host instructions (traced %d), the machine %d", g.name, fo.hostInsts, ft.hostInsts, mm.HostInsts)
			}
			trHostCU += cu(ratioF(fo.translateS, float64(fo.blocks))*float64(mm.Translations), unit)
			exHostCU += cu(ratioF(fo.execS, float64(fo.hostInsts))*float64(mm.HostInsts), unit)
		}
	}
	out["translate.us_per_block"] = ratioF(translateS*1e6, float64(blocks))
	out["x86.decode_us_per_block"] = ratioF(decodeS*1e6, float64(blocks))
	out["translate.host_insts_per_block"] = ratioF(float64(codeInsts), float64(blocks))
	out["rawexec.ns_per_host_inst"] = ratioF(execS*1e9, float64(flatInsts))
	out["translate.host_share"] = ratioF(trHostCU, passCU)
	out["rawexec.host_share"] = ratioF(exHostCU, passCU)
	out["core.machine_share"] = 1 - out["translate.host_share"] - out["rawexec.host_share"]
	return spans
}

// simKernels times the two sim micro-kernels.
func (b *bench) simKernels(out map[string]float64, t0 time.Time) []span {
	scale := 1
	if b.opt.smoke {
		scale = 10
	}
	a := time.Now()
	ed, err := simEventDispatch(simDispatchN / scale)
	if err != nil {
		b.fail("%v", err)
	}
	mid := time.Now()
	ar, err := simAdvanceRecv(simRecvN / scale)
	if err != nil {
		b.fail("%v", err)
	}
	z := time.Now()
	out["sim.event_dispatch_ns"] = ed
	out["sim.advance_recv_ns"] = ar
	return []span{
		{Name: "sim.event_dispatch", Clock: "ns", Lane: hostLaneSim, Guest: -1, Start: uint64(a.Sub(t0)), End: uint64(mid.Sub(t0)), Parent: -1},
		{Name: "sim.advance_recv", Clock: "ns", Lane: hostLaneSim, Guest: -1, Start: uint64(mid.Sub(t0)), End: uint64(z.Sub(t0)), Parent: -1},
	}
}

// fleetDigest condenses everything a fleet run reports, so that a child
// process can hand it to its parent for comparison.
func fleetDigest(p *passOut) string {
	h := sha256.New()
	for _, g := range p.guests {
		if g.res == nil {
			fmt.Fprint(h, "nil;")
			continue
		}
		fmt.Fprintf(h, "%s@%d-%d;", fingerprint(g.res), g.admitted, g.finished)
	}
	if f := p.fleet; f != nil {
		fmt.Fprintf(h, "%d/%d/%v/%v/%+v", f.Slots, f.Makespan, f.TileBusy, f.Utilization, f.Fleet)
		for _, g := range f.Guests {
			fmt.Fprintf(h, "/%d.%d.%d", g.Status, g.Attempts, g.Slot)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// shardReport is what a shard-probe child prints.
type shardReport struct {
	WallS  float64 `json:"wall_s"`
	Digest string  `json:"digest"`
	Failed int     `json:"failed"`
}

// shardChild is the body of a shard-probe child process: the same fleet on
// the sharded event loop.
func shardChild(opt options, workers int) (*shardReport, error) {
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	if err := b.setup(); err != nil {
		return nil, err
	}
	p := b.fleetPass(false, workers)
	for i, g := range p.guests {
		if g.res == nil {
			continue
		}
		if err := b.guests[i].check(g.res.ExitCode, g.res.Stdout); err != nil {
			b.fail("%v", err)
		}
	}
	for _, e := range b.errs {
		note("%s", e)
	}
	return &shardReport{WallS: p.wall, Digest: fleetDigest(p), Failed: b.failed}, nil
}

// shardProbe measures what ROADMAP says was never measured: the sharded event
// loop against the serial one on the same fleet, and how often it fails. Each
// attempt is a child process under a watchdog, so that a Go runtime deadlock
// or a hang costs one attempt and not the benchmark. A failed attempt is
// counted in sim.shard_failed only: the sharded loop is no binary's default,
// and its intermittent deadlock is a known defect (see README).
func (b *bench) shardProbe(out map[string]float64, serial *passOut, serialWall float64, t0 time.Time) []span {
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	attempts := 5
	if b.opt.smoke {
		attempts = 1
	}
	limit := time.Duration(5*serialWall*float64(time.Second)) + 5*time.Second
	budget := time.Now().Add(90 * time.Second)
	want := fleetDigest(serial)
	var walls []float64
	var spans []span
	var tried, failed, identical int
	for i := 0; i < attempts && time.Now().Add(limit).Before(budget); i++ {
		tried++
		a := time.Now()
		rep, err := runShardChild(b.opt, workers, limit)
		spans = append(spans, span{Name: "sim.shard_attempt", Clock: "ns", Lane: hostLaneShard, Guest: -1,
			Start: uint64(a.Sub(t0)), End: uint64(time.Since(t0)), Parent: -1})
		if err != nil {
			failed++
			note("shard probe attempt %d: %v", i+1, err)
			continue
		}
		if rep.Failed > 0 {
			failed++
			continue
		}
		walls = append(walls, rep.WallS)
		if rep.Digest == want {
			identical++
		}
	}
	out["sim.shard_attempts"] = float64(tried)
	out["sim.shard_failed"] = float64(failed)
	out["sim.shard_identical"] = float64(identical)
	out["sim.shard_speedup"] = ratioF(serialWall, median(walls))
	return spans
}

func runShardChild(opt options, workers int, limit time.Duration) (*shardReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := []string{"-shard-child", fmt.Sprint(workers), "-workload", opt.workload, "-seed", fmt.Sprint(opt.seed)}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, opt.exe, args...)
	cmd.WaitDelay = 5 * time.Second
	outb, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("watchdog expired after %v", limit)
	}
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			msg, _, _ := strings.Cut(string(ee.Stderr), "\n")
			return nil, fmt.Errorf("child: %w: %s", err, msg)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	var rep shardReport
	if err := json.Unmarshal(outb, &rep); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &rep, nil
}
