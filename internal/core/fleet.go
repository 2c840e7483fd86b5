package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"tilevm/internal/checkpoint"
	"tilevm/internal/dcache"
	"tilevm/internal/fault"
	"tilevm/internal/guest"
	"tilevm/internal/metrics"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// Fleet mode realizes the paper's §5 vision at scale: "a large tiled
// fabric running many virtual x86's all at the same time". The fabric
// is carved into complete 8-tile VM slots (placement.go); N guest
// images are admitted to the slots in order, queueing when N exceeds
// the slot count, and a slot whose guest exits is handed the next
// queued guest. Slots exchange no messages: each VM's tiles serve only
// their own manager.
//
// Admission reuses the running tile kernels rather than spawning new
// ones (the simulator forbids spawning after Run starts): every
// kernel re-binds to the slot's current engine at a vmSwitch, and the
// exec tile coordinates the epoch change with
// a two-phase vmSwitch handshake — first the manager drains its
// in-flight translations, then the remaining service tiles flush and
// ack — so no state or message of a finished guest can leak into its
// successor.
//
// A fleet run may additionally carry a fail-stop fault plan and
// per-guest deadlines; the policy layer that turns tile failures into
// slot quarantines, guest retries, and deadline cancellations lives in
// fleetpolicy.go.

// FleetConfig selects fleet-level policy knobs.
type FleetConfig struct {
	// MaxSlots caps the number of carved VM slots (0 = as many slots as
	// fit the fabric, never more than the number of guests).
	MaxSlots int
	// Profiles, when set, turns on cost-model placement (planner.go):
	// slot shapes grow with the fabric-to-guest ratio, and each slot's
	// slave/bank split follows its guest's profile. Index-aligned with
	// imgs (zero entries take the default profile; length must be zero
	// or len(imgs)); slot i is shaped from Profiles[i] because initial
	// admission binds guest i to slot i. Capacity is unchanged: the slot
	// count comes from the base tier either way, so a fleet that fits
	// without profiles fits with them.
	Profiles []GuestProfile

	// MaxAttempts caps how many times one guest may be admitted to a
	// slot (first run plus retries after quarantines). 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Deadlines optionally gives each guest an absolute virtual-cycle
	// deadline (index-aligned with imgs; 0 = none): a guest not finished
	// by its deadline is cancelled and reported with a DeadlineError.
	// Length must be zero or len(imgs).
	Deadlines []uint64
}

// GuestResult is one guest's outcome within a fleet run.
type GuestResult struct {
	// Result is nil when the guest produced no final state: it was never
	// admitted to a slot, or it ended GuestAborted / GuestDeadlineExceeded.
	*Result
	// Status is the guest's terminal disposition; Err carries the
	// structured DeadlineError or AbortError when Status is a failure.
	Status GuestStatus
	Err    error
	// Attempts counts admissions (0 if the guest was never admitted).
	Attempts int
	// Slot is the VM slot index the guest last ran in (-1 if never
	// admitted).
	Slot int
	// Admitted and Finished are the virtual cycles at which the guest
	// was (last) bound to its slot and at which it exited. The first S
	// guests start at cycle 0; queued guests are admitted when a slot
	// frees.
	Admitted uint64
	Finished uint64
}

// FleetResult is the outcome of a fleet run.
type FleetResult struct {
	// Guests is index-aligned with the imgs argument of RunFleet.
	Guests []*GuestResult
	// Slots is the number of VM slots carved from the fabric.
	Slots int
	// Makespan is the virtual time at which the last guest finished.
	Makespan uint64
	// TileBusy is the shared fabric's per-tile busy counters.
	TileBusy []uint64
	// Utilization is sum(TileBusy) / (tiles × Makespan).
	Utilization float64
	// Fleet is the fleet-level policy counter set (all zero on a
	// fault-free, deadline-free run).
	Fleet metrics.FleetSet
}

// guestPhase is a guest's scheduling state inside the fleet run. The
// zero value is phaseQueued so the admission queue needs no explicit
// initialization.
type guestPhase uint8

const (
	phaseQueued guestPhase = iota
	phaseRunning
	phaseFinished
	phaseAborted
	phaseDeadline
	phaseInternal
)

// slotHost is a slot's mutable binding to its current guest engine;
// the wrapped tile kernels re-read it after every vmSwitch epoch.
type slotHost struct {
	cur   *engine
	guest int
	// quarantined marks the slot excised from the carve; procs holds the
	// slot tiles' simulator processes so the supervisor can daemon-mark
	// them at quarantine time.
	quarantined bool
	procs       []*sim.Proc
	// tabs are the code-path tables the slot lends each admission in
	// turn.
	tabs *slotTables
}

// fleetRun is the host-side fleet scheduler state. The discrete-event
// simulator runs one tile kernel at a time, so it needs no locking.
type fleetRun struct {
	cfg   Config
	m     *raw.Machine
	imgs  []*guest.Image
	slots []placement
	hosts []*slotHost

	// Per-guest bookkeeping, index-aligned with imgs.
	engines  []*engine
	slotOf   []int
	admitted []uint64
	finished []uint64
	attempts []int
	phase    []guestPhase
	errs     []error
	deadline []uint64 // per-guest deadline (0 = none)
	cks      []*checkpoint.Checkpointer
	lost     []rollbackReq // the fail-stop that quarantined the guest's last slot

	// Admission queue: guests waiting for a slot, in admission order.
	queue []int

	// Fault-policy state (fleetpolicy.go). plan is non-nil only when the
	// fault plan has fail-stop clauses, and then arms the recovery
	// protocol on every engine (engine.recovery) and the supervisor;
	// horizon is the last fail cycle (idle slots must stay alive until
	// then — a quarantine may still re-queue a guest). slotIdx gives
	// every tile's slot, -1 for an uncarved one.
	plan        *fault.Plan
	horizon     uint64
	slotIdx     []int
	maxAttempts int
	fleet       metrics.FleetSet

	remaining int // guests not yet terminal; 0 stops the simulation
}

// RunFleet executes N guests as a fleet of virtual machines sharing
// one fabric. cfg supplies timing parameters, the fabric size
// (cfg.Params.Width×Height), and translator options; per-VM tile
// counts are fixed by the slot shape. Results are deterministic:
// repeated runs are byte-identical, and each guest's final state hash
// equals its solo-run hash regardless of slot assignment.
//
// cfg.Fault may carry a fail-stop/stall plan (validateFleetFaultPlan).
// A plan with fail clauses arms the recovery protocol in every slot and
// makes guests checkpoint at their dispatch boundary every
// DefaultCheckpointInterval cycles. A slot loses a slave or bank in
// place; any other fail-stop quarantines the slot it hits, and the
// victim guest is retried per fc's policy knobs, from its latest
// checkpoint instead of the image.
func RunFleet(imgs []*guest.Image, cfg Config, fc FleetConfig) (res *FleetResult, err error) {
	// Panic containment, host side: tile-kernel panics are already
	// converted to sim.PanicError by the event loop, and this boundary
	// catches everything else (carving, admission bookkeeping, result
	// collection), so a caller holding a fleet of other work — the
	// tilevmd scheduler — can never be taken down by one batch.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, internalFromPanic(r, debug.Stack())
		}
	}()
	slots, err := validateFleet(&cfg, fc, len(imgs))
	if err != nil {
		return nil, err
	}
	fl, simErr := runFleet(imgs, cfg, fc, slots)

	// A tile-kernel panic is attributed to the guest whose slot hosted
	// the panicking process before results are collected, so the victim
	// reports GuestInternalError while finished guests keep their
	// results.
	var ie *InternalError
	var perr *sim.PanicError
	if errors.As(simErr, &perr) {
		ie = fl.attributePanic(perr)
	}
	res = fl.collect()
	if ie != nil {
		return res, ie
	}
	if simErr != nil {
		return res, fmt.Errorf("core: fleet simulation failed: %w", simErr)
	}
	for gi, e := range fl.engines {
		if e != nil && e.execErr != nil && !e.cancelled {
			return res, fmt.Errorf("core: guest %d failed: %w", gi, e.execErr)
		}
	}
	return res, nil
}

// runFleet builds the machine for a validated configuration, admits
// imgs to slots and runs the simulation, returning the scheduler state
// the results are read from and the simulation's error.
func runFleet(imgs []*guest.Image, cfg Config, fc FleetConfig, slots []placement) (*fleetRun, error) {
	cfg.fillDefaults()
	fl := &fleetRun{
		cfg:         cfg,
		m:           raw.NewMachine(cfg.Params),
		imgs:        imgs,
		slots:       slots,
		hosts:       make([]*slotHost, len(slots)),
		engines:     make([]*engine, len(imgs)),
		slotOf:      make([]int, len(imgs)),
		admitted:    make([]uint64, len(imgs)),
		finished:    make([]uint64, len(imgs)),
		attempts:    make([]int, len(imgs)),
		phase:       make([]guestPhase, len(imgs)),
		errs:        make([]error, len(imgs)),
		deadline:    make([]uint64, len(imgs)),
		lost:        make([]rollbackReq, len(imgs)),
		slotIdx:     slotIndexOf(slots, cfg.Params.Tiles()),
		maxAttempts: fc.MaxAttempts,
		remaining:   len(imgs),
	}
	if fl.maxAttempts == 0 {
		fl.maxAttempts = DefaultMaxAttempts
	}
	copy(fl.deadline, fc.Deadlines)
	for _, d := range fl.deadline {
		if d > 0 {
			fl.fleet.DeadlineTotal++
		}
	}
	if !cfg.Fault.Empty() && len(cfg.Fault.Fails) > 0 {
		fl.plan = fl.cfg.Fault
		for _, f := range fl.plan.Fails {
			if f.Cycle > fl.horizon {
				fl.horizon = f.Cycle
			}
		}
	}
	if !cfg.Fault.Empty() {
		inj := fault.NewInjector(cfg.Fault)
		fl.m.Faults = inj
		if cfg.Journal != nil || cfg.Tracer != nil {
			inj.Observe = func(kind fault.Kind, tile int, now uint64) {
				cfg.Journal.Add(checkpoint.EvFault, now, uint64(kind), uint64(tile))
				cfg.Tracer.Instant(tile, "fault", now, "kind", uint64(kind), "", 0)
			}
		}
	}
	if fl.plan != nil {
		fl.cks = make([]*checkpoint.Checkpointer, len(imgs))
		for gi := range fl.cks {
			fl.cks[gi] = checkpoint.NewCheckpointer(DefaultCheckpointInterval)
		}
	}
	fl.m.Sim.SetLimit(cfg.MaxCycles)
	cfg.Interrupt.bind(fl.m.Sim)
	fl.m.SetTracer(cfg.Tracer)
	for gi := range fl.slotOf {
		fl.slotOf[gi] = -1
	}
	// Initial admission: guest i takes slot i; the rest queue in order.
	for si := range slots {
		fl.hosts[si] = &slotHost{guest: si, tabs: newSlotTables(&cfg.Params)}
		fl.hosts[si].cur = fl.newEngine(si, si)
		fl.attempts[si] = 1
		fl.phase[si] = phaseRunning
	}
	for gi := len(slots); gi < len(imgs); gi++ {
		fl.queue = append(fl.queue, gi)
	}
	fl.spawnSlots()
	// The supervisor is spawned last — after every tile kernel — so at a
	// shared cycle it observes the tiles' work before acting: a guest
	// finishing exactly at a fail cycle has already finished. Without a
	// fail clause there is no supervisor.
	if fl.plan != nil {
		fl.m.Sim.Spawn("fleet-supervisor", fl.supervise)
	}
	// One shard per VM slot when the slots are independent. They exchange
	// no messages; what still couples them is a fault plan: one injector,
	// and a supervisor that reaches into every slot. Coupled slots stay
	// on one shard, interleaved event by event in one heap — the only
	// loop that can run them; independent ones are dispatched a slot at
	// a time. A deadline couples nothing: the exec tile takes it, and the
	// queue under the exit's Fence. Both loops produce the same
	// FleetResult and, since the tracer orders its timeline by time and
	// tile, the same trace, so which one runs is an implementation
	// detail, not a semantic one.
	if len(slots) > 1 && cfg.Fault.Empty() {
		fl.shardSlots()
	}
	return fl, fl.m.Run()
}

// attributePanic maps a sim-level panic onto the fleet: the slot whose
// tile process panicked, and the guest that slot was hosting. The
// victim guest (if it was running) turns terminal with the
// InternalError; every other non-terminal guest stays GuestPending —
// the caller decides whether to re-run them.
func (fl *fleetRun) attributePanic(perr *sim.PanicError) *InternalError {
	ie := internalFromSim(perr)
	for si, h := range fl.hosts {
		for _, p := range h.procs {
			if p.ID() == perr.Pid {
				ie.Slot, ie.Guest = si, h.guest
				if fl.phase[ie.Guest] == phaseRunning {
					fl.phase[ie.Guest] = phaseInternal
					fl.errs[ie.Guest] = ie
				}
				return ie
			}
		}
	}
	return ie
}

// newEngine builds the engine binding guest gi to slot si.
func (fl *fleetRun) newEngine(gi, si int) *engine {
	e := &engine{
		cfg:  fl.cfg,
		pl:   fl.slots[si],
		slot: &fl.slots[si],
		m:    fl.m,
		img:  fl.imgs[gi],
		proc: guest.Load(fl.imgs[gi]),
		tr: translate.New(translate.Options{
			Optimize:          fl.cfg.Optimize,
			ConservativeFlags: fl.cfg.ConservativeFlags,
		}),
		tabs:     fl.hosts[si].tabs,
		deadline: fl.deadline[gi],
	}
	if len(fl.imgs) > 1 {
		e.vmLabel = fmt.Sprintf("vm%d", gi)
	}
	if fl.plan != nil {
		e.ck = fl.cks[gi]
		e.recovery = true
		e.bankOf = make([]*dcache.Bank, fl.cfg.Params.Tiles())
	}
	e.onExit = func(c *raw.TileCtx) {
		// With a shard per slot the fleet bookkeeping below — and the
		// admission path the exec wrapper runs right after — mutates
		// state shared by every slot. Fence blocks until this is the
		// globally earliest pending work and holds the other shards
		// until the exec kernel next parks, so the shared state is
		// touched in exact serial cycle order. No-op when coupled slots
		// share one shard.
		c.P.Fence()
		switch {
		case fl.engines[gi] != e || fl.phase[gi] != phaseRunning:
			// A quarantine already re-queued or aborted this attempt; the
			// guest may be running again on another slot.
			return
		case e.deadline > 0 && e.stopCycles > e.deadline:
			e.cancelled = true
			fl.missDeadline(gi, true)
		case e.cancelled:
			return // a rollback: the slot re-admits the guest
		default:
			fl.noteFinished(gi, e)
		}
		if fl.remaining == 0 {
			c.Stop()
		}
	}
	e.registerTraceProcs()
	fl.engines[gi] = e
	fl.slotOf[gi] = si
	return e
}

// spawnSlots registers every slot's tile kernels. The execution tile is
// the slot's one goroutine, wrapped in a loop that re-binds it to the
// slot's current engine after a vmSwitch; the manager and the service
// tiles are handler kernels that re-bind themselves (tiles.go). The slot
// keeps each tile's process handle so a quarantine can daemon-mark the
// whole slot.
func (fl *fleetRun) spawnSlots() {
	for si := range fl.slots {
		pl := fl.slots[si]
		h := fl.hosts[si]
		add := func(p *sim.Proc) { h.procs = append(h.procs, p) }
		add(fl.m.SpawnTile(pl.exec, "exec", func(c *raw.TileCtx) {
			for {
				e := h.cur
				e.execKernel(c)
				if h.quarantined {
					return
				}
				if e.rollback != nil && fl.phase[h.guest] == phaseRunning {
					fl.rollBack(c, h, si)
					continue
				}
				gi, ok := fl.nextGuest(c, h)
				if !ok {
					// No queued guest and none can appear: the slot's service
					// tiles stay parked under the finished epoch. The L1 and
					// the data cache are the exec tile's alone, so their
					// storage goes now, not when the last slot's guest ends.
					h.tabs.l1, h.tabs.dl1 = nil, nil
					return
				}
				fl.admit(c, h, si, gi)
			}
		}))
		spawnService(fl.m, &pl, h)
	}
}

// shardSlots partitions the independent slots of a fleet: slot si's
// tile processes and inbox ports all land on shard si, and the kernel
// dispatches the shards one at a time. Slots exchange no messages, and
// an unexpected cross-slot send panics instead of arriving on the wrong
// clock. The shared admission state is serialized by the Fence in
// onExit.
func (fl *fleetRun) shardSlots() {
	for si := range fl.slots {
		for _, t := range fl.slots[si].tiles() {
			fl.m.SetTileShard(t, si)
		}
		for _, p := range fl.hosts[si].procs {
			p.SetShard(si)
		}
	}
}

// noteFinished records a clean guest exit, which met its deadline if
// it had one.
func (fl *fleetRun) noteFinished(gi int, e *engine) {
	fl.phase[gi] = phaseFinished
	fl.finished[gi] = e.stopCycles
	fl.remaining--
	fl.fleet.GuestsFinished++
	fl.fleet.GoodputInsts += e.stats.HostInsts
	if e.deadline > 0 {
		fl.fleet.DeadlineMet++
	}
}

// nextGuest hands the slot its next guest, the oldest queued, once
// every queued guest past its deadline is terminal. With none queued
// the slot sleeps (pure idle time: no busy accounting, no messages) to
// the cycle after the next fail cycle, the first at which a guest the
// quarantine re-queued can be there to take: the supervisor acts after
// every tile in its cycle. It retires once the queue is empty and the
// last fail cycle is past, after which no new work can appear. Without
// a fail clause or a deadline this is the plain FIFO cursor.
func (fl *fleetRun) nextGuest(c *raw.TileCtx, h *slotHost) (int, bool) {
	for !h.quarantined {
		now := c.Now()
		fl.expireQueued(now)
		if fl.remaining == 0 {
			c.Stop()
			break
		}
		if len(fl.queue) > 0 {
			gi := fl.queue[0]
			fl.queue = fl.queue[1:]
			return gi, true
		}
		if fl.plan == nil || now > fl.horizon {
			break
		}
		next := fl.horizon + 1
		for _, f := range fl.plan.Fails {
			if f.Cycle >= now && f.Cycle+1 < next {
				next = f.Cycle + 1
			}
		}
		c.P.Advance(next - now)
	}
	return 0, false
}

// admit binds guest gi to slot si and runs the vmSwitch handoff. A
// re-admission (attempt > 1) is a retry after a quarantine, which
// resumes the guest from its latest checkpoint (restoreForRetry).
func (fl *fleetRun) admit(c *raw.TileCtx, h *slotHost, si, gi int) {
	prev := fl.engines[gi]
	h.cur = fl.newEngine(gi, si)
	h.guest = gi
	fl.phase[gi] = phaseRunning
	fl.attempts[gi]++
	if fl.attempts[gi] > 1 {
		fl.fleet.GuestsRetried++
		fl.cfg.Tracer.Instant(fl.slots[si].exec, "fleet_retry", c.Now(),
			"guest", uint64(gi), "attempt", uint64(fl.attempts[gi]))
		fl.restoreForRetry(c, h.cur, prev, fl.lost[gi], false)
	}
	fl.admitted[gi] = c.Now()
	fl.handoff(c, h.cur)
}

// rollBack re-admits slot si's guest after its manager found a dead
// bank holding dirty lines: the same guest, on the same slot, from its
// latest checkpoint. It is recovery within the admission, not a retry,
// so neither Attempts nor the fleet's retry count moves.
func (fl *fleetRun) rollBack(c *raw.TileCtx, h *slotHost, si int) {
	prev := h.cur
	h.cur = fl.newEngine(h.guest, si)
	fl.restoreForRetry(c, h.cur, prev, *prev.rollback, true)
	fl.handoff(c, h.cur)
}

// restoreForRetry rebases a re-admitted guest on its latest checkpoint,
// if it has one, and carries its rollback accounting over from prev,
// the admission lost at cycle lost.detect. Restoring counts a rollback:
// the cycles from the checkpoint to the loss are re-executed, and the
// modelled restore penalty is charged to the execution tile. An
// in-place rollback with no checkpoint yet counts one too, re-executing
// from the image; a retry with none starts the guest afresh, which only
// Attempts counts. Either way the guest's checkpointer is re-armed: the
// new admission owns a fresh Memory, so the next capture must be a
// full snapshot, not an incremental diff against the lost admission's
// pages.
func (fl *fleetRun) restoreForRetry(c *raw.TileCtx, e, prev *engine, lost rollbackReq, inPlace bool) {
	snap := e.ck.Last()
	e.ck.Rearm()
	var target, pages uint64
	if snap != nil {
		e.restore = snap
		e.applyRestore(snap)
		target, pages = snap.Cycles, uint64(len(snap.Mem.Pages))
	}
	e.stats.Rollbacks = prev.stats.Rollbacks
	e.stats.ReexecCycles = prev.stats.ReexecCycles
	e.stats.RollbackCycles = prev.stats.RollbackCycles
	if snap == nil && !inPlace {
		return
	}
	P := &fl.cfg.Params
	penalty := P.RollbackFixedOcc + pages*P.RollbackPerPageOcc
	e.stats.Rollbacks++
	e.stats.ReexecCycles += lost.detect - target
	e.stats.RollbackCycles += penalty
	c.Tick(penalty)
	e.jadd(checkpoint.EvRollback, c.Now(), uint64(lost.tile), target)
	fl.cfg.Tracer.Instant(c.Tile, "rollback", c.Now(), "restore_to", target, "dead_tile", uint64(lost.tile))
}

// handoff rebinds a slot's service tiles to the next guest's engine.
// Phase 1 quiesces the manager: it acks only once its in-flight
// translations have completed (and been discarded; beginSwitch), and a
// result that lands later anyway is dropped by the new epoch's manager
// (handleTransDone). Phase 2 resets the remaining
// service tiles — workers flush their data banks (charged like a morph
// flush) and slaves re-register with the new manager when their
// kernels restart. The exec tile owns the handshake; it resumes
// dispatching only after every service tile has acked. A worker the
// slot loses meanwhile is waited for no longer: its excision wakes the
// exec tile (broadcast).
func (fl *fleetRun) handoff(c *raw.TileCtx, e *engine) {
	pl := e.slot
	broadcast[switchAck](c, pl, []int{pl.manager}, vmSwitch{})
	targets := []int{pl.mmu, pl.sys}
	targets = append(targets, pl.l15...)
	targets = append(targets, pl.slaves...)
	targets = append(targets, pl.banks...)
	broadcast[switchAck](c, pl, targets, vmSwitch{})
}

// result assembles the guest's Result from its engine once the
// simulation has ended.
func (e *engine) result() *Result {
	e.stats.Cycles = e.stopCycles
	if e.mgr != nil {
		e.mgr.settle()
	}
	return &Result{
		Cycles:    e.stopCycles,
		ExitCode:  e.proc.Kern.ExitCode,
		Stdout:    e.proc.Kern.Stdout.String(),
		M:         e.stats,
		StateHash: checkpoint.FinalHash(e.proc),
	}
}

// collect assembles the fleet result after the simulation ends.
func (fl *fleetRun) collect() *FleetResult {
	res := &FleetResult{
		Guests:   make([]*GuestResult, len(fl.imgs)),
		Slots:    len(fl.slots),
		TileBusy: fl.m.BusyCycles(),
		Fleet:    fl.fleet,
	}
	for gi := range fl.imgs {
		gr := &GuestResult{
			Slot:     fl.slotOf[gi],
			Attempts: fl.attempts[gi],
			Err:      fl.errs[gi],
		}
		res.Guests[gi] = gr
		switch fl.phase[gi] {
		case phaseFinished:
			gr.Status = GuestFinished
		case phaseAborted:
			gr.Status = GuestAborted
		case phaseDeadline:
			gr.Status = GuestDeadlineExceeded
		case phaseInternal:
			gr.Status = GuestInternalError
		default:
			gr.Status = GuestPending
		}
		e := fl.engines[gi]
		if e == nil {
			continue // never admitted to a slot
		}
		gr.Admitted = fl.admitted[gi]
		gr.Finished = fl.finished[gi]
		if fl.phase[gi] != phaseFinished && fl.phase[gi] != phaseRunning {
			// Aborted or deadline-killed: the engine's state is a
			// mid-flight snapshot of a cancelled attempt, not a result.
			continue
		}
		gr.Result = e.result()
		if gr.Finished > res.Makespan {
			res.Makespan = gr.Finished
		}
	}
	if res.Makespan > 0 && len(res.TileBusy) > 0 {
		var busy uint64
		for _, b := range res.TileBusy {
			busy += b
		}
		res.Utilization = float64(busy) / (float64(len(res.TileBusy)) * float64(res.Makespan))
	}
	return res
}
