// Command tilevm runs an x86 guest program on the simulated Raw tiled
// processor through the parallel dynamic binary translation engine.
//
// The guest is either a TVMI image file (see cmd/wlgen) or a named
// synthetic SpecInt workload:
//
//	tilevm -workload 176.gcc
//	tilevm -image prog.tvmi -slaves 9 -membanks 1
//	tilevm -workload 181.mcf -morph -threshold 5 -v
//	tilevm -workload 164.gzip -fault-plan 'fail:7@150000,drop:0.001' -fault-seed 42 -v
//
// Faulted runs can recover by rolling back to a periodic checkpoint
// instead of excising the dead tile in place, and any run can be
// recorded to a replayable file:
//
//	tilevm -workload 181.mcf -fault-plan 'fail:7@150000' -recovery rollback -v
//	tilevm -workload 181.mcf -fault-plan 'fail:7@150000' -recovery rollback -record run.tvrc
//	tilevm -replay run.tvrc
//	tilevm -replay run.tvrc -replay-to-cycle 500000
//	tilevm -replay-diff run.tvrc
//
// Fleet mode runs N guests as virtual machines sharing one fabric,
// carving the grid into 8-tile VM slots and queueing guests beyond the
// slot count:
//
//	tilevm -guests 164.gzip,181.mcf,176.gcc,164.gzip -grid 8x8
//	tilevm -guests 164.gzip,181.mcf -planner -v
//
// Fleet runs compose with fail-stop fault plans: a fault that kills a
// slot tile quarantines the whole slot, and its guest is retried on the
// survivors (with deterministic backoff), restored from the latest
// checkpoint when -recovery rollback is on, until -max-attempts or its
// -deadline runs out:
//
//	tilevm -guests 164.gzip,181.mcf,164.gzip -grid 8x8 -fault-plan 'fail:9@500000'
//	tilevm -guests 181.mcf,164.gzip -fault-plan 'fail:12@1000000' -recovery rollback -v
//	tilevm -guests 164.gzip,181.mcf -deadline 8000000 -max-attempts 2 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tilevm/internal/bench"
	"tilevm/internal/checkpoint"
	"tilevm/internal/core"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/raw"
	"tilevm/internal/rawisa"
	"tilevm/internal/trace"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

func main() {
	var (
		imagePath  = flag.String("image", "", "TVMI or ELF32 guest image to run")
		wlName     = flag.String("workload", "", "named synthetic workload (e.g. 176.gcc)")
		guests     = flag.String("guests", "", "comma-separated workload names to run as a fleet of VMs (e.g. 164.gzip,181.mcf)")
		grid       = flag.String("grid", "4x4", "fabric size WxH for fleet mode (requires -guests)")
		planner    = flag.Bool("planner", false, "fleet mode: cost-model placement planner — grow slots on undersubscribed fabrics and split tiles between translation slaves and cache banks per guest profile")
		deadline   = flag.Uint64("deadline", 0, "fleet mode: per-guest virtual-cycle deadline; guests still running at the deadline are cancelled (0 = none)")
		maxAtt     = flag.Int("max-attempts", 0, "fleet mode: admission attempts per guest before it is aborted (0 = default)")
		retryBack  = flag.Uint64("retry-backoff", 0, "fleet mode: base virtual-cycle backoff before re-admitting a quarantined guest (0 = default)")
		retrySeed  = flag.Uint64("retry-seed", 0, "fleet mode: seed for the deterministic retry-backoff jitter")
		slaves     = flag.Int("slaves", 6, "translation slave tiles (1-9)")
		spec       = flag.Bool("speculate", true, "speculative parallel translation")
		l15        = flag.Int("l15", 2, "L1.5 code cache banks (0-2)")
		membanks   = flag.Int("membanks", 4, "L2 data cache bank tiles (1 or 4)")
		optimize   = flag.Bool("opt", true, "optimize translated blocks")
		tier0      = flag.Bool("tier0", false, "tier-0 template translation for demand misses, with hotness-driven re-translation by the optimizing tier")
		tierUpThr  = flag.Uint64("tier-up-threshold", 0, "retired instructions before a hot tier-0 block is promoted to the optimizing tier (0 = default; requires -tier0)")
		morph      = flag.Bool("morph", false, "dynamic virtual architecture reconfiguration")
		threshold  = flag.Int("threshold", 5, "morphing queue-length threshold")
		maxCycles  = flag.Uint64("maxcycles", 0, "simulation watchdog (0 = default)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the run; an expired run is interrupted and exits non-zero (0 = none; composes with -deadline, which is virtual cycles)")
		faultPlan  = flag.String("fault-plan", "", "fault plan, e.g. 'fail:7@150000,drop:0.01,delay:0.02+400,corrupt:0.01,dram:0.05,stall:6@30000+5000'")
		faultSeed  = flag.Uint64("fault-seed", 0, "seed for the fault plan's probabilistic clauses")
		noRecover  = flag.Bool("fault-norecover", false, "disable fault recovery (a fault then deadlocks with a diagnostic)")
		recovery   = flag.String("recovery", "excise", "fail-stop recovery mode: excise (morph around the dead tile in place) or rollback (restore the last checkpoint when excision would lose writebacks)")
		ckEvery    = flag.Uint64("checkpoint-interval", 0, "cycles between whole-machine checkpoints (0 = default when -recovery rollback, else off)")
		recordPath = flag.String("record", "", "write a deterministic record of the run to this file")
		replayPath = flag.String("replay", "", "replay a recorded run and verify it reproduces")
		replayTo   = flag.Uint64("replay-to-cycle", 0, "halt the replay at this virtual cycle (requires -replay)")
		diffPath   = flag.String("replay-diff", "", "replay a recorded run and bisect to the first divergent event")
		verbose    = flag.Bool("v", false, "print detailed metrics")
		dump       = flag.String("dump", "", "disassemble the translation of the block at this guest PC (hex; 'entry' for the entry point) and exit")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)")
		traceEvery = flag.Uint64("trace-interval", 0, "also sample hit rates, queue depth, and per-tile occupancy every N cycles into <trace>.csv (requires -trace)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Validate every fault / checkpoint / replay flag before touching the
	// guest or the simulator, so a bad invocation dies with one line and a
	// non-zero exit instead of a mid-run panic or a silent misconfiguration.
	recMode, err := core.ParseRecoveryMode(*recovery)
	if err != nil {
		die(err)
	}
	if *faultPlan != "" {
		if _, err := fault.ParsePlan(*faultPlan); err != nil {
			die(err)
		}
	} else if *faultSeed != 0 {
		die(fmt.Errorf("-fault-seed is meaningless without -fault-plan"))
	}
	if *noRecover && recMode == core.RecoverRollback {
		die(fmt.Errorf("-fault-norecover conflicts with -recovery rollback (rollback is a recovery mode)"))
	}
	replaying := *replayPath != "" || *diffPath != ""
	if *replayPath != "" && *diffPath != "" {
		die(fmt.Errorf("use either -replay or -replay-diff, not both"))
	}
	if replaying && *recordPath != "" {
		die(fmt.Errorf("-record conflicts with -replay/-replay-diff (a replay re-runs the recorded inputs)"))
	}
	if *replayTo != 0 && *replayPath == "" {
		die(fmt.Errorf("-replay-to-cycle requires -replay"))
	}
	if replaying && (*imagePath != "" || *wlName != "" || *faultPlan != "" || *dump != "") {
		die(fmt.Errorf("-replay/-replay-diff take the guest and fault plan from the record; drop -image/-workload/-fault-plan/-dump"))
	}
	if *traceEvery != 0 && *tracePath == "" {
		die(fmt.Errorf("-trace-interval requires -trace (the sampler writes next to the trace file)"))
	}
	if *timeout < 0 {
		die(fmt.Errorf("-timeout must be non-negative"))
	}
	if *timeout != 0 && (replaying || *recordPath != "" || *dump != "") {
		die(fmt.Errorf("-timeout conflicts with -record/-replay/-replay-diff/-dump (a wall-clock limit cutting a run short would make the artifact non-reproducible)"))
	}
	if *tierUpThr != 0 && !*tier0 {
		die(fmt.Errorf("-tier-up-threshold requires -tier0"))
	}
	if *tier0 && (replaying || *recordPath != "") {
		die(fmt.Errorf("-tier0 conflicts with -record/-replay/-replay-diff (the tier is not part of the record format)"))
	}

	// Fleet mode: validate the whole invocation — flag conflicts, the
	// grid shape, whether the fabric fits any VM slot, and every guest
	// name — before building a single guest image.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, fleetOnly := range []string{
		"grid", "planner", "deadline", "max-attempts", "retry-backoff", "retry-seed",
	} {
		if set[fleetOnly] && *guests == "" {
			die(fmt.Errorf("-%s requires -guests (fleet mode)", fleetOnly))
		}
	}
	var fleetNames []string
	var fleetSlots int
	fleetCfg := core.DefaultConfig()
	if *guests != "" {
		// -fault-plan, -fault-seed, -recovery, and -checkpoint-interval
		// compose with fleet mode: fail-stop plans drive slot quarantine,
		// and rollback mode restores retried guests from their latest
		// checkpoint. Everything that fixes per-VM resources or wraps the
		// run in the record/replay harness stays single-machine-only.
		for _, conflict := range []string{
			"image", "workload", "slaves", "l15", "membanks", "morph", "threshold",
			"fault-norecover", "record", "replay", "replay-diff", "dump",
		} {
			if set[conflict] {
				die(fmt.Errorf("-%s does not apply in fleet mode (per-VM resources are fixed by the 8-tile slot shape)", conflict))
			}
		}
		w, h, err := raw.ParseGrid(*grid)
		if err != nil {
			die(err)
		}
		fleetCfg.Params.Width, fleetCfg.Params.Height = w, h
		fleetCfg.Optimize = *optimize
		fleetCfg.ConservativeFlags = !*optimize
		fleetCfg.Speculative = *spec
		fleetCfg.Tier0 = *tier0
		fleetCfg.TierUpThreshold = *tierUpThr
		fleetCfg.Recovery = recMode
		fleetCfg.CheckpointInterval = *ckEvery
		if *maxCycles != 0 {
			fleetCfg.MaxCycles = *maxCycles
		}
		if *faultPlan != "" {
			plan, err := fault.ParsePlan(*faultPlan) // syntax validated above
			if err != nil {
				die(err)
			}
			plan.Seed = *faultSeed
			fleetCfg.Fault = plan
		}
		layout, err := core.FleetSlotLayout(fleetCfg.Params)
		if err != nil {
			die(err)
		}
		fleetSlots = len(layout)
		for _, n := range strings.Split(*guests, ",") {
			n = strings.TrimSpace(n)
			if _, ok := workload.ByName(n); !ok {
				die(fmt.Errorf("unknown workload %q (known: %v)", n, workload.Names()))
			}
			fleetNames = append(fleetNames, n)
		}
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
				fmt.Fprintln(os.Stderr, "tilevm:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tilevm:", err)
			}
		}()
	}

	// Every mode traces: tracing charges no virtual cycles, so a traced
	// record, replay or fleet is the run it would have been untraced.
	// fleetCfg.Params is the default fabric unless -grid changed it.
	var trc *trace.Tracer
	if *tracePath != "" {
		trc = core.NewTracerFor(fleetCfg.Params, *traceEvery)
	}
	saveTrace := func() {
		if trc == nil {
			return
		}
		csvPath, err := trc.WriteFiles(*tracePath)
		if err != nil {
			die(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "trace     : %s (%d events)\n", *tracePath, trc.Len())
			if csvPath != "" {
				fmt.Fprintf(os.Stderr, "samples   : %s (%d windows)\n", csvPath, trc.Windows())
			}
		}
	}

	if replaying {
		path, bisect := *replayPath, false
		if *diffPath != "" {
			path, bisect = *diffPath, true
		}
		diverged, err := replay(path, *replayTo, bisect, trc)
		saveTrace()
		if err != nil {
			die(err)
		}
		if diverged {
			os.Exit(2) // the replay did not reproduce the record
		}
		return
	}

	if *guests != "" {
		imgs := make([]*guest.Image, len(fleetNames))
		for i, n := range fleetNames {
			p, _ := workload.ByName(n) // validated above
			imgs[i] = p.Build()
		}
		fleetCfg.Tracer = trc
		intr, stopTimer := armTimeout(*timeout)
		fleetCfg.Interrupt = intr
		defer stopTimer()
		fc := core.FleetConfig{
			MaxAttempts:  *maxAtt,
			RetryBackoff: *retryBack,
			RetrySeed:    *retrySeed,
			Deadline:     *deadline,
		}
		if *planner {
			fc.Profiles = make([]core.GuestProfile, len(fleetNames))
			for i, n := range fleetNames {
				p, _ := workload.ByName(n) // validated above
				fc.Profiles[i] = core.ProfileFromWorkload(p)
			}
		}
		res, err := core.RunFleet(imgs, fleetCfg, fc)
		if res != nil {
			saveTrace()
		}
		if err != nil {
			if core.Interrupted(err) {
				die(fmt.Errorf("wall-clock timeout %v exceeded (%v)", *timeout, err))
			}
			die(err)
		}
		reportFleet(res, fleetNames, fleetSlots, *verbose)
		return
	}

	img, err := loadGuest(*imagePath, *wlName)
	if err != nil {
		die(err)
	}

	if *dump != "" {
		if err := dumpBlock(img, *dump, *optimize, *tier0); err != nil {
			die(err)
		}
		return
	}

	if *recordPath != "" {
		rc := checkpoint.RecordConfig{
			Workload:           *wlName,
			ImagePath:          *imagePath,
			Slaves:             *slaves,
			Speculative:        *spec,
			L15Banks:           *l15,
			MemBanks:           *membanks,
			Optimize:           *optimize,
			Morph:              *morph,
			MorphThreshold:     *threshold,
			MaxCycles:          *maxCycles,
			FaultPlan:          *faultPlan,
			FaultSeed:          *faultSeed,
			FaultRecovery:      !*noRecover,
			Recovery:           uint8(recMode),
			CheckpointInterval: *ckEvery,
		}
		res, rec, err := bench.RunRecorded(rc, trc)
		saveTrace()
		if err != nil {
			die(err)
		}
		if err := checkpoint.WriteRecordFile(*recordPath, rec); err != nil {
			die(err)
		}
		report(res, *verbose)
		fmt.Printf("recorded  : %s (%d events)\n", *recordPath, len(rec.Events))
		return
	}

	cfg := core.DefaultConfig()
	cfg.Slaves = *slaves
	cfg.Speculative = *spec
	cfg.L15Banks = *l15
	cfg.MemBanks = *membanks
	cfg.Optimize = *optimize
	cfg.ConservativeFlags = !*optimize
	cfg.Tier0 = *tier0
	cfg.TierUpThreshold = *tierUpThr
	cfg.Morph = *morph
	cfg.MorphThreshold = *threshold
	cfg.Recovery = recMode
	cfg.CheckpointInterval = *ckEvery
	if *maxCycles != 0 {
		cfg.MaxCycles = *maxCycles
	}
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultPlan)
		if err != nil {
			die(err)
		}
		plan.Seed = *faultSeed
		cfg.Fault = plan
		cfg.FaultRecovery = !*noRecover
	}
	cfg.Tracer = trc
	intr, stopTimer := armTimeout(*timeout)
	cfg.Interrupt = intr
	defer stopTimer()

	res, err := core.Run(img, cfg)
	// Write the trace even when the run failed: a timeline of a run that
	// hit the watchdog or a guest fault is exactly when you want one.
	saveTrace()
	if err != nil {
		if core.Interrupted(err) {
			die(fmt.Errorf("wall-clock timeout %v exceeded (%v)", *timeout, err))
		}
		die(err)
	}
	report(res, *verbose)
}

// armTimeout arms a wall-clock interrupt for the run: after d the
// simulation is stopped from outside virtual time. d == 0 returns a
// nil handle (core treats it as absent) and a no-op stop.
func armTimeout(d time.Duration) (*core.InterruptHandle, func()) {
	if d == 0 {
		return nil, func() {}
	}
	h := core.NewInterruptHandle()
	t := time.AfterFunc(d, h.Interrupt)
	return h, func() { t.Stop() }
}

// reportFleet prints the fleet run outcome: one line per guest in
// admission order, then the fleet totals. capacity is how many slots
// the fabric could carve (res.Slots is capped at the guest count).
// With -v each guest's stdout follows, labeled.
func reportFleet(res *core.FleetResult, names []string, capacity int, verbose bool) {
	for gi, g := range res.Guests {
		switch {
		case g.Status == core.GuestFinished && g.Result != nil:
			attempts := ""
			if g.Attempts > 1 {
				attempts = fmt.Sprintf("  attempts %d", g.Attempts)
			}
			fmt.Printf("guest %-2d  : %-12s slot %d  admitted %12d  finished %12d  exit %d%s\n",
				gi, names[gi], g.Slot, g.Admitted, g.Finished, g.ExitCode, attempts)
		case g.Err != nil:
			fmt.Printf("guest %-2d  : %-12s %s: %v\n", gi, names[gi], g.Status, g.Err)
		default:
			fmt.Printf("guest %-2d  : %-12s %s\n", gi, names[gi], g.Status)
		}
	}
	fmt.Printf("fleet     : %d guests on %d slots (fabric fits %d), makespan %d cycles, utilization %.1f%%\n",
		len(res.Guests), res.Slots, capacity, res.Makespan, 100*res.Utilization)
	f := &res.Fleet
	if f.SlotsQuarantined > 0 || f.GuestsRetried > 0 || f.GuestsAborted > 0 || f.DeadlineTotal > 0 {
		fmt.Printf("policy    : %d slots quarantined, %d retries, %d aborted, %d deadline-exceeded\n",
			f.SlotsQuarantined, f.GuestsRetried, f.GuestsAborted, f.GuestsDeadlineExceeded)
		fmt.Printf("goodput   : %.3f insts/cycle, SLO attainment %.0f%% (%d/%d deadlines met)\n",
			f.Goodput(res.Makespan), 100*f.SLOAttainment(), f.DeadlineMet, f.DeadlineTotal)
	}
	if !verbose {
		return
	}
	for gi, g := range res.Guests {
		if g.Result == nil || g.Stdout == "" {
			continue
		}
		fmt.Printf("--- guest %d (%s) stdout ---\n%s", gi, names[gi], g.Stdout)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "tilevm:", err)
	os.Exit(1)
}

// replay re-runs a recorded run and verifies it reproduces. With bisect
// the full replay is followed, on divergence, by a truncated re-replay
// to the last matching event's cycle, confirming the divergence point.
// trc, if non-nil, traces the first replay. It reports whether the
// replay diverged from the record.
func replay(path string, toCycle uint64, bisect bool, trc *trace.Tracer) (diverged bool, err error) {
	rec, err := checkpoint.ReadRecordFile(path)
	if err != nil {
		return false, err
	}
	rep, err := bench.Replay(rec, toCycle, trc)
	if err != nil {
		return false, err
	}
	fmt.Println(rep)
	if rep.Match && rep.FirstDivergent < 0 {
		return false, nil
	}
	if bisect && rep.FirstDivergent > 0 && rep.RefEvent != nil {
		// Confirm the bisection: everything before the divergent event
		// replays cleanly.
		last := rec.Events[rep.FirstDivergent-1]
		pre, err := bench.Replay(rec, last.Cycle, nil)
		if err != nil {
			return true, err
		}
		if pre.FirstDivergent < 0 {
			fmt.Printf("  prefix: clean through event #%d (cycle %d)\n",
				rep.FirstDivergent-1, last.Cycle)
		} else {
			fmt.Printf("  prefix: diverges earlier, at event #%d\n", pre.FirstDivergent)
		}
	}
	return true, nil
}

// report prints the run outcome, matching the historical tilevm output.
func report(res *core.Result, verbose bool) {
	os.Stdout.WriteString(res.Stdout)
	fmt.Printf("exit code : %d\n", res.ExitCode)
	fmt.Printf("cycles    : %d\n", res.Cycles)
	if !verbose {
		return
	}
	m := res.M
	fmt.Printf("state hash        : %016x\n", res.StateHash)
	fmt.Printf("dispatches        : %d\n", m.BlockDispatches)
	fmt.Printf("host instructions : %d\n", m.HostInsts)
	fmt.Printf("translations      : %d (%d guest insts)\n", m.Translations, m.TransGuestInsts)
	if m.Tier0Installs > 0 || m.Promotions > 0 {
		fmt.Printf("tiered            : %d tier-0 installs, %d tier-1 installs, %d promotions\n",
			m.Tier0Installs, m.Tier1Installs, m.Promotions)
	}
	if m.WarmupCycles > 0 {
		fmt.Printf("warmup            : cycle %d\n", m.WarmupCycles)
	}
	fmt.Printf("demand misses     : %d\n", m.DemandMisses)
	fmt.Printf("spec wasted       : %d\n", m.SpecWasted)
	fmt.Printf("L1 code           : %d lookups, %.3f hit, %d flushes, %d chains\n",
		m.L1CLookups, float64(m.L1CHits)/float64(max(m.L1CLookups, 1)), m.L1CFlushes, m.Chains)
	fmt.Printf("L1.5 code         : %d lookups, %.3f hit\n", m.L15Lookups, m.L15HitRate())
	fmt.Printf("L2 code           : %d accesses (%.2e/cycle), %.3f miss\n",
		m.L2CAccess, m.L2CAccessesPerCycle(), m.L2CMissRate())
	fmt.Printf("data L1           : %d accesses, %.4f miss\n", m.DL1Accesses, m.DL1MissRate())
	fmt.Printf("L2 data banks     : %d requests, %d misses\n", m.L2DRequests, m.L2DMisses)
	fmt.Printf("TLB misses        : %d\n", m.TLBMisses)
	fmt.Printf("syscalls/assists  : %d/%d\n", m.Syscalls, m.Assists)
	fmt.Printf("reconfigurations  : %d (%d lines flushed)\n", m.Reconfigs, m.MorphFlushLines)
	fmt.Printf("SMC invalidations : %d\n", m.SMCInvalidations)
	if m.FaultsInjected > 0 || m.Timeouts > 0 {
		fmt.Printf("faults injected   : %d (%d drops, %d delays, %d corruptions, %d DRAM, %d fails, %d stalls)\n",
			m.FaultsInjected, m.MsgsDropped, m.MsgsDelayed, m.MsgsCorrupted,
			m.DRAMErrors, m.TileFails, m.TileStalls)
		fmt.Printf("recovery          : %d timeouts, %d retries, %d role remaps, %d writebacks lost, %d recovery cycles\n",
			m.Timeouts, m.Retries, m.RoleRemaps, m.WritebacksLost, m.RecoveryCycles)
		fmt.Printf("fault msgs recycled: %d\n", m.FaultMsgsRecycled)
	}
	if m.Checkpoints > 0 || m.Rollbacks > 0 {
		fmt.Printf("checkpoints       : %d\n", m.Checkpoints)
		fmt.Printf("rollbacks         : %d (%d re-executed cycles, %d restore-penalty cycles)\n",
			m.Rollbacks, m.ReexecCycles, m.RollbackCycles)
	}
}

// dumpBlock prints the guest basic block at the given PC and its
// translation to host code. With tier0 the block goes through the
// template tier instead (falling back like the slaves do if some
// instruction has no template), so the two tiers' output can be
// compared side by side.
func dumpBlock(img *guest.Image, at string, optimize, tier0 bool) error {
	pc := img.Entry
	if at != "entry" {
		v, err := strconv.ParseUint(strings.TrimPrefix(at, "0x"), 16, 32)
		if err != nil {
			return fmt.Errorf("bad -dump address %q: %w", at, err)
		}
		pc = uint32(v)
	}
	p := guest.Load(img)
	insts, err := translate.DiscoverBlock(p.Mem, pc)
	if err != nil {
		return err
	}
	fmt.Printf("guest basic block at %#x (%d instructions):\n", pc, len(insts))
	for _, in := range insts {
		fmt.Printf("  %08x: %s\n", in.Addr, in.String())
	}
	tr := translate.New(translate.Options{Optimize: optimize, ConservativeFlags: !optimize})
	res, err := tr.TranslateTier(p.Mem, pc, tier0)
	if err != nil {
		return err
	}
	tierName := "optimizing"
	if res.Tier == translate.TierTemplate {
		tierName = "tier-0 template"
	}
	fmt.Printf("\ntranslated host code (%d instructions, %d bytes, tier=%s, optimize=%v):\n",
		len(res.Code), res.CodeBytes, tierName, optimize)
	fmt.Print(rawisa.Disassemble(res.Code))
	fmt.Printf("\nexit kind %v, target %#x, fallthrough %#x\n",
		res.Kind, res.Target, res.FallTarget)
	return nil
}

func loadGuest(imagePath, wlName string) (*guest.Image, error) {
	switch {
	case imagePath != "" && wlName != "":
		return nil, fmt.Errorf("use either -image or -workload, not both")
	case imagePath != "":
		return guest.LoadAutoFile(imagePath)
	case wlName != "":
		p, ok := workload.ByName(wlName)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %v)", wlName, workload.Names())
		}
		return p.Build(), nil
	default:
		return nil, fmt.Errorf("specify -image or -workload")
	}
}
