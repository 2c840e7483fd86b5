// Command tilevm runs an x86 guest program on the simulated Raw tiled
// processor through the parallel dynamic binary translation engine.
//
// The guest is either a TVMI image file (see cmd/wlgen) or a named
// synthetic SpecInt workload:
//
//	tilevm -workload 176.gcc
//	tilevm -image prog.tvmi -slaves 9 -membanks 1
//	tilevm -workload 181.mcf -morph -threshold 5 -v
//	tilevm -workload 164.gzip -fault-plan 'fail:7@150000,stall:6@30000+5000' -v
//
// A faulted run recovers: a dead tile is excised in place, and a dead
// bank holding dirty lines rolls the guest back to its last periodic
// checkpoint. Any run can be recorded to a replayable file:
//
//	tilevm -workload 181.mcf -fault-plan 'fail:7@150000' -v
//	tilevm -workload 181.mcf -fault-plan 'fail:7@150000' -record run.tvrc
//	tilevm -replay run.tvrc
//
// A replay that diverges from its record is bisected to the first
// divergent journal event, and tilevm exits 2.
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
// survivors at once (up to core's default attempts), restored from its
// latest checkpoint, until its attempts or its -deadline run out:
//
//	tilevm -guests 164.gzip,181.mcf,164.gzip -grid 8x8 -fault-plan 'fail:9@500000'
//	tilevm -guests 181.mcf,164.gzip -fault-plan 'fail:12@1000000' -v
//	tilevm -guests 164.gzip,181.mcf -deadline 8000000 -v
//
// The whole command line is checked before any file is created: each
// set flag against one table of the modes it applies to and the flag it
// requires, then the configuration it builds against core's validators.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"tilevm/internal/bench"
	"tilevm/internal/checkpoint"
	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/raw"
	"tilevm/internal/rawisa"
	"tilevm/internal/trace"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// An invocation runs in one mode: single, fleet, record, replay or dump.
// A flag rule lists the modes the flag applies to.
const (
	allModes = "single fleet record replay dump"
	oneVM    = "single record replay dump"
)

// flagRule is one row of the flag table: the flag with its default and
// usage, the space-separated modes it applies to (replay and dump
// accept, and ignore, the single-VM knobs), the flag it requires, and
// the core.Config or core.FleetConfig field it sets — the name a
// core.ConfigError uses.
type flagRule struct {
	name     string
	def      any // string, bool, int, uint64 or time.Duration
	usage    string
	modes    string
	requires string
	field    string
}

var flagTable = []flagRule{
	{"image", "", "TVMI or ELF32 guest image to run", "single record dump", "", ""},
	{"workload", "", "named synthetic workload (e.g. 176.gcc)", "single record dump", "", ""},
	{"guests", "", "comma-separated workload names to run as a fleet of VMs (e.g. 164.gzip,181.mcf)", "fleet", "", ""},
	{"grid", "4x4", "fabric size WxH for fleet mode (requires -guests)", "fleet", "", "Params"},
	{"planner", false, "fleet mode: cost-model placement planner — grow slots on undersubscribed fabrics and split tiles between translation slaves and cache banks per guest profile", "fleet", "", "Profiles"},
	{"deadline", uint64(0), "fleet mode: per-guest virtual-cycle deadline; guests still running at the deadline are cancelled (0 = none)", "fleet", "", "Deadlines"},
	{"slaves", 6, "translation slave tiles (1-9)", oneVM, "", "Slaves"},
	{"speculate", true, "speculative parallel translation", allModes, "", "Speculative"},
	{"l15", 2, "L1.5 code cache banks (0-2)", oneVM, "", "L15Banks"},
	{"membanks", 4, "L2 data cache bank tiles (1 or 4)", oneVM, "", "MemBanks"},
	{"opt", true, "optimize translated blocks", allModes, "", "Optimize"},
	{"morph", false, "dynamic virtual architecture reconfiguration", allModes, "", "Morph"},
	{"threshold", 5, "morphing queue-length threshold", oneVM, "", "MorphThreshold"},
	{"maxcycles", uint64(0), "simulation watchdog (0 = default)", allModes, "", "MaxCycles"},
	{"timeout", time.Duration(0), "wall-clock budget for the run; an expired run is interrupted and exits non-zero (0 = none; composes with -deadline, which is virtual cycles)", "single fleet", "", ""},
	{"fault-plan", "", "fault plan: comma-separated fail:T@C (tile T fail-stops at cycle C) and stall:T@C+D (tile T stalls D cycles at cycle C) clauses, e.g. 'fail:7@150000,stall:6@30000+5000'", "single fleet record dump", "", "Fault"},
	{"record", "", "write a deterministic record of the run to this file", "record dump", "", "Journal"},
	{"replay", "", "replay a recorded run and verify it reproduces; a divergence is bisected to the first divergent event", "replay", "", ""},
	{"v", false, "print detailed metrics", allModes, "", ""},
	{"dump", "", "disassemble the translation of the block at this guest PC (hex; 'entry' for the entry point) and exit", "dump", "", ""},
	{"trace", "", "write a Chrome trace_event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)", allModes, "", ""},
	{"trace-interval", uint64(0), "also sample hit rates, queue depth, and per-tile occupancy every N cycles into <trace>.csv (requires -trace)", allModes, "trace", ""},
	{"cpuprofile", "", "write a CPU profile to this file", allModes, "", ""},
	{"memprofile", "", "write a heap profile to this file on exit", allModes, "", ""},
}

// flags is a parsed flag set, read by flag name.
type flags struct{ *flag.FlagSet }

func (f flags) get(name string) any           { return f.Lookup(name).Value.(flag.Getter).Get() }
func (f flags) str(name string) string        { return f.get(name).(string) }
func (f flags) on(name string) bool           { return f.get(name).(bool) }
func (f flags) num(name string) int           { return f.get(name).(int) }
func (f flags) u64(name string) uint64        { return f.get(name).(uint64) }
func (f flags) dur(name string) time.Duration { return f.get(name).(time.Duration) }

// invocation is a checked command line and the run it builds.
type invocation struct {
	flags
	mode  string
	names []string                // fleet guests' workload names
	imgs  []*guest.Image          // the guests: one, or the fleet
	rc    checkpoint.RecordConfig // what single, record and fleet runs run
	cfg   core.Config
	fc    core.FleetConfig
}

// parse checks the whole command line and builds the run it asks for.
// It creates no file, so a rejected invocation leaves nothing behind.
func parse(args []string) (*invocation, error) {
	fs := flag.NewFlagSet("tilevm", flag.ExitOnError)
	for _, r := range flagTable {
		switch d := r.def.(type) {
		case string:
			fs.String(r.name, d, r.usage)
		case bool:
			fs.Bool(r.name, d, r.usage)
		case int:
			fs.Int(r.name, d, r.usage)
		case uint64:
			fs.Uint64(r.name, d, r.usage)
		case time.Duration:
			fs.Duration(r.name, d, r.usage)
		}
	}
	fs.Parse(args) // exits on a malformed command line, as flag.Parse does
	inv := &invocation{flags: flags{fs}, cfg: core.DefaultConfig()}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["replay"]:
		inv.mode = "replay"
	case set["guests"]:
		inv.mode = "fleet"
	case set["dump"]:
		inv.mode = "dump"
	case set["record"]:
		inv.mode = "record"
	default:
		inv.mode = "single"
	}
	for _, r := range flagTable {
		switch {
		case !set[r.name]:
		case !slices.Contains(strings.Fields(r.modes), inv.mode):
			return nil, fmt.Errorf("-%s does not apply in %s mode", r.name, inv.mode)
		case r.requires != "" && !set[r.requires]:
			return nil, fmt.Errorf("-%s requires -%s", r.name, r.requires)
		}
	}
	if inv.dur("timeout") < 0 {
		return nil, fmt.Errorf("-timeout must be non-negative")
	}
	if inv.mode == "replay" {
		return inv, nil // the record carries the guest and the configuration
	}

	inv.rc = checkpoint.RecordConfig{
		Workload:       inv.str("workload"),
		ImagePath:      inv.str("image"),
		Slaves:         inv.num("slaves"),
		Speculative:    inv.on("speculate"),
		L15Banks:       inv.num("l15"),
		MemBanks:       inv.num("membanks"),
		Optimize:       inv.on("opt"),
		Morph:          inv.on("morph"),
		MorphThreshold: inv.num("threshold"),
		MaxCycles:      inv.u64("maxcycles"),
		FaultPlan:      inv.str("fault-plan"),
	}
	var err error
	if inv.cfg, err = bench.RecordConfig(inv.rc); err != nil {
		return nil, err
	}
	if inv.mode != "fleet" {
		img, err := bench.RecordImage(inv.rc)
		if err != nil {
			return nil, fmt.Errorf("-image, -workload: %w", err)
		}
		inv.imgs = []*guest.Image{img}
		if inv.mode == "dump" {
			return inv, nil // dump translates one block and builds no machine
		}
		return inv, flagError(inv.cfg.Validate())
	}
	if inv.cfg.Params.Width, inv.cfg.Params.Height, err = raw.ParseGrid(inv.str("grid")); err != nil {
		return nil, err
	}
	for _, n := range strings.Split(inv.str("guests"), ",") {
		p, ok := workload.ByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %v)", n, workload.Names())
		}
		inv.names, inv.imgs = append(inv.names, p.Name), append(inv.imgs, p.Build())
		if inv.on("planner") {
			inv.fc.Profiles = append(inv.fc.Profiles, core.ProfileFromWorkload(p))
		}
		if d := inv.u64("deadline"); d > 0 {
			inv.fc.Deadlines = append(inv.fc.Deadlines, d)
		}
	}
	return inv, flagError(core.ValidateFleet(&inv.cfg, inv.fc, len(inv.imgs)))
}

// flagError prefixes a core.ConfigError with the flags that set the
// fields in conflict, from the flag table; a field no flag sets is named
// as it is.
func flagError(err error) error {
	var ce *core.ConfigError
	if !errors.As(err, &ce) || len(ce.Fields) == 0 {
		return err
	}
	names := make([]string, len(ce.Fields))
	for i, field := range ce.Fields {
		names[i] = field
		for _, r := range flagTable {
			if r.field == field {
				names[i] = "-" + r.name
			}
		}
	}
	return fmt.Errorf("%s: %w", strings.Join(names, ", "), err)
}

func main() {
	inv, err := parse(os.Args[1:])
	if err != nil {
		die(err)
	}
	os.Exit(inv.run())
}

// run executes a checked invocation and returns the exit status.
func (inv *invocation) run() int {
	tracePath, verbose := inv.str("trace"), inv.on("v")
	if cpuProf := inv.str("cpuprofile"); cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	if memProf := inv.str("memprofile"); memProf != "" {
		defer func() {
			f, err := os.Create(memProf)
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
	var trc *trace.Tracer
	if tracePath != "" {
		trc = core.NewTracerFor(inv.cfg.Params, inv.u64("trace-interval"))
	}
	// The trace is written even when the run failed: a timeline of a run
	// that hit the watchdog or a guest fault is exactly when you want one.
	saveTrace := func() {
		if trc == nil {
			return
		}
		csvPath, err := trc.WriteFiles(tracePath)
		if err != nil {
			die(err)
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "trace     : %s (%d events)\n", tracePath, trc.Len())
			if csvPath != "" {
				fmt.Fprintf(os.Stderr, "samples   : %s (%d windows)\n", csvPath, trc.Windows())
			}
		}
	}
	runErr := func(err error) error {
		if core.Interrupted(err) {
			return fmt.Errorf("wall-clock timeout %v exceeded (%v)", inv.dur("timeout"), err)
		}
		return err
	}
	inv.cfg.Tracer = trc
	intr, stopTimer := armTimeout(inv.dur("timeout"))
	defer stopTimer()
	inv.cfg.Interrupt = intr

	switch inv.mode {
	case "replay":
		diverged, err := replayRecord(inv.str("replay"), trc)
		saveTrace()
		if err != nil {
			die(err)
		}
		if diverged {
			return 2 // the replay did not reproduce the record
		}
	case "fleet":
		layout, err := core.FleetSlotLayout(inv.cfg.Params)
		if err != nil {
			die(err)
		}
		res, err := core.RunFleet(inv.imgs, inv.cfg, inv.fc)
		if res != nil {
			saveTrace()
		}
		if err != nil {
			die(runErr(err))
		}
		reportFleet(res, inv.names, len(layout), verbose)
	case "dump":
		if err := dumpBlock(inv.imgs[0], inv.str("dump"), inv.on("opt")); err != nil {
			die(err)
		}
	case "record":
		res, rec, err := bench.RunRecorded(inv.rc, trc)
		saveTrace()
		if err != nil {
			die(err)
		}
		if err := checkpoint.WriteRecordFile(inv.str("record"), rec); err != nil {
			die(err)
		}
		report(res, verbose)
		fmt.Printf("recorded  : %s (%d events)\n", inv.str("record"), len(rec.Events))
	default:
		res, err := core.Run(inv.imgs[0], inv.cfg)
		saveTrace()
		if err != nil {
			die(runErr(err))
		}
		report(res, verbose)
	}
	return 0
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

// replayRecord re-runs a recorded run and verifies it reproduces. On
// divergence it bisects: a truncated re-replay to the last matching
// event's cycle confirms the divergence point. trc, if non-nil, traces
// the full replay. It reports whether the replay diverged.
func replayRecord(path string, trc *trace.Tracer) (diverged bool, err error) {
	rec, err := checkpoint.ReadRecordFile(path)
	if err != nil {
		return false, err
	}
	rep, err := bench.Replay(rec, 0, trc)
	if err != nil {
		return false, err
	}
	fmt.Println(rep)
	if rep.Match && rep.FirstDivergent < 0 {
		return false, nil
	}
	if rep.FirstDivergent > 0 && rep.RefEvent != nil {
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
	if m.FaultsInjected > 0 {
		fmt.Printf("faults injected   : %d (%d fails, %d stalls)\n",
			m.FaultsInjected, m.TileFails, m.TileStalls)
		fmt.Printf("recovery          : %d role remaps, %d recovery cycles\n",
			m.RoleRemaps, m.RecoveryCycles)
	}
	if m.Checkpoints > 0 || m.Rollbacks > 0 {
		fmt.Printf("checkpoints       : %d\n", m.Checkpoints)
		fmt.Printf("rollbacks         : %d (%d re-executed cycles, %d restore-penalty cycles)\n",
			m.Rollbacks, m.ReexecCycles, m.RollbackCycles)
	}
}

// dumpBlock prints the guest basic block at the given PC and its
// translation to host code.
func dumpBlock(img *guest.Image, at string, optimize bool) error {
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
	res, err := tr.TranslateFinal(p.Mem, pc)
	if err != nil {
		return err
	}
	host, err := rawisa.DecodeAll(res.Code)
	if err != nil {
		return err
	}
	fmt.Printf("\ntranslated host code (%d instructions in %d words, %d bytes, optimize=%v):\n",
		len(host), len(res.Code), res.CodeBytes(), optimize)
	fmt.Print(rawisa.Disassemble(res.Code))
	fmt.Printf("\nexit kind %v, target %#x, fallthrough %#x\n",
		res.Kind, res.Target, res.FallTarget)
	return nil
}
