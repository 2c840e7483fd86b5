package core

import (
	"errors"
	"fmt"

	"tilevm/internal/checkpoint"
	"tilevm/internal/dcache"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/mmu"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// Result is the outcome of running a guest image on the machine.
type Result struct {
	Cycles   uint64
	ExitCode int32
	Stdout   string
	M        metrics.Set
	// StateHash condenses the guest-visible final state (registers,
	// flags, PC, exit status, stdout, memory contents); two runs with
	// equal hashes ended bit-identically.
	StateHash uint64
	// TileBusy is the per-tile busy-cycle count (index = tile id);
	// divide by Cycles for utilization. After a rollback it covers the
	// final attempt only.
	TileBusy []uint64
}

// engine is the shared state of one run. The discrete-event simulator
// executes exactly one tile kernel at a time, so this state needs no
// locking.
type engine struct {
	cfg   Config
	pl    placement
	m     *raw.Machine
	img   *guest.Image // what proc was loaded from
	proc  *guest.Process
	tr    *translate.Translator
	stats metrics.Set

	execErr    error
	stopCycles uint64
	mgr        *managerState
	pool       msgPool
	// onExit, when set, replaces the default Stop() at guest exit
	// (multi-VM coordination).
	onExit func(*raw.TileCtx)
	// vmLabel tags this engine's trace rows with its guest index in
	// fleet mode.
	vmLabel string
	// cancelled marks this engine's guest as aborted by the fleet
	// supervisor (quarantine or deadline): the exec kernel breaks out of
	// its dispatch loop at the next boundary. quarantined additionally
	// marks the whole slot fail-stopped: its manager dispatches no more
	// work, so the slot's daemon tiles finish what they hold and go
	// quiet instead of speculating on for a guest that is gone. Neither
	// is ever set outside a fleet run with policy events.
	cancelled   bool
	quarantined bool

	// Self-modifying-code tracking (single-threaded in virtual time,
	// shared between the execution tile's detector and the manager's
	// page registry).
	codePages map[uint32]bool   // 4KB pages holding translated code
	pageInval map[uint32]uint64 // page -> SMC generation of last invalidation
	smcGen    uint64

	// Fault injection. inj is non-nil only when cfg.Fault is a
	// non-empty plan, and then arms every watchdog/heartbeat/retry code
	// path ("robust mode"; a fleet's engines never have one). With inj
	// nil none of those paths execute, so fault-free runs stay
	// bit-identical to the pre-fault engine.
	inj *fault.Injector
	// bankOf lets the manager see whether a dead bank holds dirty lines
	// (and so needs a rollback) at excision time; registered by each
	// worker in robust mode. Single-threaded in virtual time like the
	// rest.
	bankOf map[int]*dcache.Bank

	// Checkpoint/rollback state. ck drives the capture cadence (nil
	// when checkpointing is off); restore is the snapshot this attempt
	// re-executes from (nil on the first attempt); restoreBlocks holds
	// the re-translated code cache contents for the restore; rollback
	// is set by the manager when a dead bank holds dirty lines, which
	// excision in place would lose, and aborts the attempt.
	ck            *checkpoint.Checkpointer
	restore       *checkpoint.State
	restoreBlocks map[uint32]*translate.Result
	rollback      *rollbackReq
	// mmuLive is the MMU tile kernel's live state, registered so the
	// exec-tile capture can snapshot it.
	mmuLive *mmu.MMU
}

// rollbackReq records a manager-detected failure that requires
// rollback: the dead tile and the detection cycle.
type rollbackReq struct {
	tile   int
	detect uint64
}

// rollbackStats carries accounting across re-execution attempts: the
// restored metrics snapshot predates the rollback, so these totals are
// re-applied at the start of every attempt.
type rollbackStats struct {
	rollbacks uint64
	reexec    uint64 // checkpoint-to-detection cycles re-executed
	penalty   uint64 // modeled restore cost charged
	faults    fault.Counts
}

// maxRollbackAttempts bounds re-execution; a plan with more distinct
// worker failures than this is rejected by validateFaultPlan anyway.
const maxRollbackAttempts = 16

// jadd appends to the run's journal, if one is configured.
func (e *engine) jadd(kind checkpoint.EventKind, cycle, a, b uint64) {
	e.cfg.Journal.Add(kind, cycle, a, b)
}

// Run executes a guest image under the given virtual architecture
// configuration and returns cycle counts and metrics.
//
// Under a fault plan, Run is an attempt loop: goroutine stacks cannot
// be snapshotted, so "rollback" means aborting the simulation, building
// a fresh machine seeded from the last checkpoint (with the dead tile
// removed from the placement), and re-running on the same absolute
// timeline via sim.SetStart. Checkpoints are captured
// at the exec tile's dispatch boundary, where no request is
// outstanding; in-flight messages are dropped by the restore, which is
// exactly the lost-message case the retry/heartbeat protocols recover
// from.
func Run(img *guest.Image, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	var ck *checkpoint.Checkpointer
	if cfg.Fault != nil && len(cfg.Fault.Fails) > 0 {
		ck = checkpoint.NewCheckpointer(DefaultCheckpointInterval)
	}

	var (
		dead  []int
		start uint64
		extra rollbackStats
	)
	for attempt := 0; ; attempt++ {
		res, rb, err := runAttempt(img, cfg, ck, dead, start, extra)
		if rb == nil {
			return res, err
		}
		if attempt+1 >= maxRollbackAttempts {
			return res, fmt.Errorf("core: rollback recovery exceeded %d attempts", maxRollbackAttempts)
		}
		dead = append(dead, rb.tile)
		restore := ck.Last()
		var target, pages uint64
		if restore != nil {
			target = restore.Cycles
			pages = uint64(len(restore.Mem.Pages))
		}
		penalty := cfg.Params.RollbackFixedOcc + pages*cfg.Params.RollbackPerPageOcc
		start = rb.detect + penalty
		extra.rollbacks++
		extra.reexec += rb.detect - target
		extra.penalty += penalty
		extra.faults = addCounts(extra.faults, rb.counts)
		ck.Rearm()
		cfg.Journal.Add(checkpoint.EvRollback, start, uint64(rb.tile), target)
		cfg.Tracer.Instant(rb.tile, "rollback", start, "restore_to", target, "dead_tile", uint64(rb.tile))
	}
}

// addCounts sums fault tallies across re-execution attempts. Faults
// injected before a rollback really happened in simulation, so the
// final metrics report the cumulative count.
func addCounts(a, b fault.Counts) fault.Counts {
	return fault.Counts{Stalls: a.Stalls + b.Stalls, Fails: a.Fails + b.Fails}
}

// abortedAttempt extends rollbackReq with the aborted attempt's
// carried accounting.
type abortedAttempt struct {
	rollbackReq
	counts fault.Counts
}

// runAttempt performs one full simulation. It returns a non-nil
// abortedAttempt when the manager requested a rollback; the caller
// re-invokes with the dead tile excluded and the clock advanced.
func runAttempt(img *guest.Image, cfg Config, ck *checkpoint.Checkpointer,
	dead []int, start uint64, extra rollbackStats) (*Result, *abortedAttempt, error) {

	pl := place(&cfg)
	restore := ck.Last()
	plan := cfg.Fault
	if len(dead) > 0 {
		pl.dropDead(dead)
		if len(pl.slaves) == 0 || len(pl.banks) == 0 {
			return nil, nil, fmt.Errorf("core: rollback left %d slaves and %d banks; need at least one of each",
				len(pl.slaves), len(pl.banks))
		}
		// Dead tiles are not spawned, so their fail clauses must not
		// re-fire (and re-count) during re-execution.
		plan = plan.WithoutFails(dead)
		cfg.Fault = plan
	} else {
		// First attempt: run from the image, not from a snapshot.
		restore = nil
	}

	e := &engine{
		cfg:  cfg,
		pl:   pl,
		m:    raw.NewMachine(cfg.Params),
		img:  img,
		proc: guest.Load(img),
		tr: translate.New(translate.Options{
			Optimize:          cfg.Optimize,
			ConservativeFlags: cfg.ConservativeFlags,
		}),
		codePages: map[uint32]bool{},
		pageInval: map[uint32]uint64{},
		ck:        ck,
		restore:   restore,
	}
	e.m.Sim.SetLimit(cfg.MaxCycles)
	cfg.Interrupt.bind(e.m.Sim)
	if start > 0 {
		e.m.Sim.SetStart(start)
	}
	e.m.SetTracer(cfg.Tracer)
	e.registerTraceProcs()

	if !cfg.Fault.Empty() {
		e.inj = fault.NewInjector(cfg.Fault)
		e.m.Faults = e.inj
		e.bankOf = map[int]*dcache.Bank{}
		if cfg.Journal != nil || cfg.Tracer != nil {
			e.inj.Observe = func(kind fault.Kind, tile int, now uint64) {
				e.jadd(checkpoint.EvFault, now, uint64(kind), uint64(tile))
				e.trc().Instant(tile, "fault", now, "kind", uint64(kind), "", 0)
			}
		}
	}

	if restore != nil {
		e.applyRestore(restore)
	}
	e.stats.Rollbacks = extra.rollbacks
	e.stats.ReexecCycles = extra.reexec
	e.stats.RollbackCycles = extra.penalty

	// One slot, never handed on.
	e.m.SpawnTile(e.pl.exec, "exec", e.execKernel)
	spawnService(e.m, &e.pl, &slotHost{cur: e})

	simErr := e.m.Run()

	if e.rollback != nil {
		// The attempt is abandoned wholesale; only the fault tallies
		// survive into the accounting of the final attempt.
		return nil, &abortedAttempt{
			rollbackReq: *e.rollback,
			counts:      e.inj.Counts(),
		}, nil
	}

	if e.stopCycles == 0 {
		e.stopCycles = e.m.Sim.Now()
	}
	e.stats.Cycles = e.stopCycles
	if e.mgr != nil {
		e.stats.L2CAccess = e.mgr.l2.Accesses
		e.stats.L2CMisses = e.mgr.l2.Misses
		e.stats.SpecWasted = uint64(len(e.mgr.specStored))
	}
	if e.inj != nil {
		fc := addCounts(extra.faults, e.inj.Counts())
		e.stats.FaultsInjected = fc.Total()
		e.stats.TileFails = fc.Fails
		e.stats.TileStalls = fc.Stalls
	}
	res := &Result{
		Cycles:    e.stopCycles,
		ExitCode:  e.proc.Kern.ExitCode,
		Stdout:    e.proc.Kern.Stdout.String(),
		M:         e.stats,
		StateHash: checkpoint.FinalHash(e.proc),
		TileBusy:  e.m.BusyCycles(),
	}
	e.jadd(checkpoint.EvFinal, e.stopCycles, uint64(uint32(res.ExitCode)), res.StateHash)
	// Partial results are returned alongside the error so callers can
	// diagnose watchdog/abort conditions.
	if simErr != nil {
		var perr *sim.PanicError
		if errors.As(simErr, &perr) {
			// A panicking tile kernel becomes a structured InternalError:
			// single-machine runs have exactly one guest to blame.
			ie := internalFromSim(perr)
			ie.Guest, ie.Slot = 0, 0
			return res, nil, ie
		}
		return res, nil, fmt.Errorf("core: simulation failed: %w", simErr)
	}
	if e.execErr != nil {
		return res, nil, fmt.Errorf("core: guest execution failed: %w", e.execErr)
	}
	return res, nil, nil
}

// tileClock adapts a tile context to the execution engine's Clock.
type tileClock struct{ c *raw.TileCtx }

func (t tileClock) Now() uint64   { return t.c.Now() }
func (t tileClock) Tick(d uint64) { t.c.Tick(d) }
