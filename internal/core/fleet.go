package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"tilevm/internal/checkpoint"
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
	// RetryBackoff is the base re-admission delay in virtual cycles
	// after a guest's slot is quarantined; the actual delay grows
	// exponentially with the attempt count plus a seeded jitter
	// (retryBackoff). 0 means DefaultRetryBackoff.
	RetryBackoff uint64
	// RetrySeed seeds the deterministic backoff jitter.
	RetrySeed uint64
	// Deadline, when nonzero, is an absolute virtual-cycle deadline
	// applied to every guest: a guest not finished by then is cancelled
	// and reported with a DeadlineError.
	Deadline uint64
	// Deadlines optionally overrides Deadline per guest (index-aligned
	// with imgs; 0 entries fall back to Deadline). Length must be zero
	// or len(imgs).
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

// pendingGuest is one admission-queue entry: guest gi becomes eligible
// at virtual cycle release (0 = immediately).
type pendingGuest struct {
	gi      int
	release uint64
}

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
}

// fleetRun is the host-side fleet scheduler state. The discrete-event
// simulator runs one tile kernel at a time, so it needs no locking.
type fleetRun struct {
	cfg   Config
	fc    FleetConfig
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
	deadline []uint64 // effective per-guest deadline (0 = none)
	cks      []*checkpoint.Checkpointer

	// Admission queue: guests waiting for a slot, in admission order.
	queue []pendingGuest

	// Fault-policy state (fleetpolicy.go). plan is non-nil only when the
	// fault plan has fail-stop clauses; horizon is the last fail cycle
	// (idle slots must stay alive until then — a quarantine may still
	// re-queue a guest). slotQuarantined records excised slots; slotIdx
	// maps every carved tile to its slot.
	plan            *fault.Plan
	horizon         uint64
	slotQuarantined map[int]bool
	slotIdx         map[int]int
	events          []uint64
	maxAttempts     int
	backoffBase     uint64
	fleet           metrics.FleetSet

	remaining int // guests not yet terminal; 0 stops the simulation
}

// RunFleet executes N guests as a fleet of virtual machines sharing
// one fabric. cfg supplies timing parameters, the fabric size
// (cfg.Params.Width×Height), and translator options; per-VM tile
// counts are fixed by the slot shape. Results are deterministic:
// repeated runs are byte-identical, and each guest's final state hash
// equals its solo-run hash regardless of slot assignment.
//
// cfg.Fault may carry a fail-stop/stall plan (validateFleetFaultPlan);
// fail-stops quarantine the slot they hit and the victim guest is
// retried per fc's policy knobs. With cfg.Recovery==RecoverRollback
// (or CheckpointInterval set) guests checkpoint at their dispatch
// boundary and a retry resumes from the latest snapshot instead of the
// image.
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
	if len(imgs) == 0 {
		return nil, fmt.Errorf("core: fleet mode needs at least one guest")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000_000
	}
	if cfg.Morph {
		return nil, fmt.Errorf("core: intra-VM morphing and fleet mode are mutually exclusive")
	}
	if cfg.Journal != nil {
		return nil, fmt.Errorf("core: record-replay is not supported in fleet mode")
	}
	if fc.MaxAttempts < 0 {
		return nil, fmt.Errorf("core: fleet MaxAttempts must be non-negative, got %d", fc.MaxAttempts)
	}
	if len(fc.Deadlines) != 0 && len(fc.Deadlines) != len(imgs) {
		return nil, fmt.Errorf("core: %d per-guest deadlines for %d guests (need none or one per guest)",
			len(fc.Deadlines), len(imgs))
	}
	if len(fc.Profiles) != 0 && len(fc.Profiles) != len(imgs) {
		return nil, fmt.Errorf("core: %d guest profiles for %d guests (need none or one per guest)",
			len(fc.Profiles), len(imgs))
	}
	if cfg.Recovery == RecoverRollback && cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	// One base-tier scan settles the slot count: exactly MaxSlots (a
	// *NoFitError if they do not fit) or as many as fit, never more than
	// there are guests. Without profiles it is also the carve.
	slots, err := planFabric(cfg.Params, nil, fc.MaxSlots)
	if err != nil {
		return nil, err
	}
	if len(slots) > len(imgs) {
		slots = slots[:len(imgs)]
	}
	if len(fc.Profiles) > 0 {
		// The planner re-shapes that many slots; it only changes shapes
		// and role splits, never the count.
		if slots, err = planFabric(cfg.Params, fc.Profiles, len(slots)); err != nil {
			return nil, err
		}
	}
	if !cfg.Fault.Empty() {
		if err := validateFleetFaultPlan(cfg.Fault, slots, cfg.Params); err != nil {
			return nil, err
		}
	}

	fl := &fleetRun{
		cfg:             cfg,
		fc:              fc,
		m:               raw.NewMachine(cfg.Params),
		imgs:            imgs,
		slots:           slots,
		hosts:           make([]*slotHost, len(slots)),
		engines:         make([]*engine, len(imgs)),
		slotOf:          make([]int, len(imgs)),
		admitted:        make([]uint64, len(imgs)),
		finished:        make([]uint64, len(imgs)),
		attempts:        make([]int, len(imgs)),
		phase:           make([]guestPhase, len(imgs)),
		errs:            make([]error, len(imgs)),
		deadline:        make([]uint64, len(imgs)),
		slotQuarantined: map[int]bool{},
		slotIdx:         slotIndexOf(slots),
		maxAttempts:     fc.MaxAttempts,
		backoffBase:     fc.RetryBackoff,
		remaining:       len(imgs),
	}
	if fl.maxAttempts == 0 {
		fl.maxAttempts = DefaultMaxAttempts
	}
	if fl.backoffBase == 0 {
		fl.backoffBase = DefaultRetryBackoff
	}
	for gi := range fl.deadline {
		fl.deadline[gi] = fc.Deadline
		if len(fc.Deadlines) > 0 && fc.Deadlines[gi] > 0 {
			fl.deadline[gi] = fc.Deadlines[gi]
		}
		if fl.deadline[gi] > 0 {
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
		if cfg.Tracer != nil {
			inj.Observe = func(kind fault.Kind, tile int, now uint64) {
				cfg.Tracer.Instant(tile, "fault", now, "kind", uint64(kind), "", 0)
			}
		}
	}
	if cfg.CheckpointInterval > 0 {
		fl.cks = make([]*checkpoint.Checkpointer, len(imgs))
		for gi := range fl.cks {
			fl.cks[gi] = checkpoint.NewCheckpointer(cfg.CheckpointInterval)
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
		fl.hosts[si] = &slotHost{cur: fl.newEngine(si, si), guest: si}
		fl.attempts[si] = 1
		fl.phase[si] = phaseRunning
	}
	for gi := len(slots); gi < len(imgs); gi++ {
		fl.queue = append(fl.queue, pendingGuest{gi: gi})
	}
	fl.spawnSlots()
	// The supervisor is spawned last — after every tile kernel — so at a
	// shared cycle it observes the tiles' work before acting: a guest
	// finishing exactly at a fail or deadline cycle has already finished.
	// With no fail-stops and no deadlines there are no events and no
	// supervisor: the run is bit-identical to the policy-free scheduler.
	fl.events = fl.policyEvents()
	if len(fl.events) > 0 {
		fl.m.Sim.Spawn("fleet-supervisor", fl.supervise)
	}
	// One shard per VM slot when the slots are independent. They exchange
	// no messages, but four things still couple them through shared host
	// state: a fault plan (one injector, and a supervisor that reaches
	// into every slot), policy events (the supervisor again), a Tracer and
	// a DispatchLog (one shared sink each). Coupled slots stay on one
	// shard, interleaved event by event in one heap — the only loop that
	// can run them; independent ones are dispatched a slot at a time.
	// Both produce the same FleetResult, so which one runs is an
	// implementation detail, not a semantic one.
	if len(slots) > 1 && cfg.Fault.Empty() &&
		cfg.Tracer == nil && cfg.DispatchLog == nil && len(fl.events) == 0 {
		fl.shardSlots()
	}

	simErr := fl.m.Run()

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
		m:    fl.m,
		img:  fl.imgs[gi],
		proc: guest.Load(fl.imgs[gi]),
		tr: translate.New(translate.Options{
			Optimize:          fl.cfg.Optimize,
			ConservativeFlags: fl.cfg.ConservativeFlags,
		}),
		codePages: map[uint32]bool{},
		pageInval: map[uint32]uint64{},
		vmLabel:   fmt.Sprintf("vm%d", gi),
	}
	e.initTierState()
	if fl.cks != nil {
		e.ck = fl.cks[gi]
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
		if e.cancelled {
			// Quarantine or deadline: the supervisor already did this
			// guest's terminal (or re-queue) bookkeeping.
			return
		}
		fl.remaining--
		if fl.remaining == 0 {
			c.Stop()
		}
	}
	e.registerTraceProcs()
	fl.engines[gi] = e
	fl.slotOf[gi] = si
	return e
}

// spawnSlots registers every slot's tile kernels. The execution tile
// and the manager are goroutines wrapped in a loop that re-binds them to
// the slot's current engine after a vmSwitch; the service tiles are
// handler kernels that re-bind themselves (tiles.go). The slot keeps
// each tile's process handle so a quarantine can daemon-mark the whole
// slot.
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
				if !e.cancelled {
					fl.finished[h.guest] = e.stopCycles
					fl.noteFinished(h.guest, e)
				}
				gi, ok := fl.nextGuest(c, h)
				if !ok {
					// No queued guest and none can appear: the slot's service
					// tiles stay parked under the finished epoch.
					return
				}
				fl.admit(c, h, si, gi)
			}
		}))
		add(fl.m.SpawnTile(pl.manager, "manager", func(c *raw.TileCtx) {
			for {
				h.cur.managerKernel(c)
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

// noteFinished records a clean guest exit in the fleet counters.
func (fl *fleetRun) noteFinished(gi int, e *engine) {
	fl.phase[gi] = phaseFinished
	fl.fleet.GuestsFinished++
	fl.fleet.GoodputInsts += e.stats.HostInsts
	if d := fl.deadline[gi]; d > 0 && e.stopCycles <= d {
		fl.fleet.DeadlineMet++
	}
}

// nextGuest hands the slot its next guest: the oldest queue entry
// whose release cycle has passed. When none is eligible yet the slot
// sleeps (pure idle time — no busy accounting, no messages) until the
// earliest future release or fail cycle, because a fail-stop may still
// re-queue a running guest; it retires only when the queue is empty
// and the fault horizon is past, after which no new work can appear.
// On a policy-free run the queue holds only release-0 entries and the
// horizon is 0, so this degrades to the plain FIFO cursor — same
// claims, same cycles, no extra events.
func (fl *fleetRun) nextGuest(c *raw.TileCtx, h *slotHost) (int, bool) {
	for {
		if h.quarantined {
			return 0, false
		}
		now := c.Now()
		eligible := -1
		for qi, pg := range fl.queue {
			if pg.release <= now {
				eligible = qi
				break
			}
		}
		if eligible >= 0 {
			pg := fl.queue[eligible]
			fl.queue = append(fl.queue[:eligible], fl.queue[eligible+1:]...)
			return pg.gi, true
		}
		if len(fl.queue) == 0 && now > fl.horizon {
			return 0, false
		}
		next := now + 1
		found := false
		cand := func(t uint64) {
			if t > now && (!found || t < next) {
				next, found = t, true
			}
		}
		cand(fl.horizon + 1)
		for _, pg := range fl.queue {
			cand(pg.release)
		}
		if fl.plan != nil {
			for _, f := range fl.plan.Fails {
				cand(f.Cycle)
			}
		}
		c.P.Advance(next - now)
	}
}

// admit binds guest gi to slot si and runs the vmSwitch handoff. A
// re-admission (attempt > 1) restarts the guest from its image — or,
// under rollback recovery, from its latest checkpoint, charging the
// modeled restore penalty.
func (fl *fleetRun) admit(c *raw.TileCtx, h *slotHost, si, gi int) {
	pl := fl.slots[si]
	h.cur = fl.newEngine(gi, si)
	h.guest = gi
	fl.phase[gi] = phaseRunning
	fl.attempts[gi]++
	if fl.attempts[gi] > 1 {
		fl.fleet.GuestsRetried++
		fl.cfg.Tracer.Instant(pl.exec, "fleet_retry", c.Now(),
			"guest", uint64(gi), "attempt", uint64(fl.attempts[gi]))
		fl.restoreForRetry(c, h.cur, gi)
	}
	fl.admitted[gi] = c.Now()
	fl.handoff(c, pl)
}

// restoreForRetry rebases a re-admitted guest on its latest checkpoint
// when rollback recovery is on. Either way the guest's checkpointer is
// re-armed: the new attempt owns a fresh Memory, so the next capture
// must be a full snapshot, not an incremental diff against the aborted
// attempt's pages.
func (fl *fleetRun) restoreForRetry(c *raw.TileCtx, e *engine, gi int) {
	if fl.cks == nil {
		return
	}
	ck := fl.cks[gi]
	snap := ck.Last()
	ck.Rearm()
	if fl.cfg.Recovery != RecoverRollback || snap == nil {
		return
	}
	e.restore = snap
	e.applyRestore(snap)
	P := &fl.cfg.Params
	penalty := P.RollbackFixedOcc + uint64(len(snap.Mem.Pages))*P.RollbackPerPageOcc
	e.stats.Rollbacks = uint64(fl.attempts[gi] - 1)
	e.stats.RollbackCycles = penalty
	c.Tick(penalty)
	fl.cfg.Tracer.Instant(fl.slots[fl.slotOf[gi]].exec, "rollback", c.Now(),
		"restore_to", snap.Cycles, "guest", uint64(gi))
}

// handoff rebinds a slot's service tiles to the next guest's engine.
// Phase 1 quiesces the manager: its in-flight translations complete
// (and are discarded) inside drainForSwitch, so no stale transDone can
// reach the new epoch. Phase 2 resets the remaining service tiles —
// workers flush their data banks (charged like a morph flush) and
// slaves re-register with the new manager when their kernels restart.
// The exec tile owns the handshake; it resumes dispatching only after
// every service tile has acked.
func (fl *fleetRun) handoff(c *raw.TileCtx, pl placement) {
	c.Send(pl.manager, vmSwitch{}, wordsCtl)
	waitSwitchAcks(c, 1)
	targets := []int{pl.mmu, pl.sys}
	targets = append(targets, pl.l15...)
	targets = append(targets, pl.slaves...)
	targets = append(targets, pl.banks...)
	for _, t := range targets {
		c.Send(t, vmSwitch{}, wordsCtl)
	}
	waitSwitchAcks(c, len(targets))
}

// waitSwitchAcks blocks until n switchAck messages arrive. Nothing
// else targets an exec tile between guests, but stray payloads are
// tolerated and skipped.
func waitSwitchAcks(c *raw.TileCtx, n int) {
	for n > 0 {
		if _, ok := c.Recv().Payload.(switchAck); ok {
			n--
		}
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
		e.stats.Cycles = e.stopCycles
		if e.mgr != nil {
			e.stats.L2CAccess = e.mgr.l2.Accesses
			e.stats.L2CMisses = e.mgr.l2.Misses
			e.stats.SpecWasted = uint64(len(e.mgr.specStored))
		}
		gr.Result = &Result{
			Cycles:    e.stopCycles,
			ExitCode:  e.proc.Kern.ExitCode,
			Stdout:    e.proc.Kern.Stdout.String(),
			M:         e.stats,
			StateHash: checkpoint.FinalHash(e.proc),
		}
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
