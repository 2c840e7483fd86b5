package core

import (
	"fmt"
	"slices"

	"tilevm/internal/sim"
)

// Fleet-level fault tolerance (DESIGN.md §10). Every slot runs the one
// recovery protocol Run's machine runs (DESIGN.md §8): under a plan
// with fail clauses its workers heartbeat, its manager excises a dead
// slave or clean bank in place, and a dead bank holding
// dirty lines rolls the guest back to its latest checkpoint on the same
// slot. The fleet layer adds what a slot cannot do for itself:
//
//   - Slot quarantine: a fail-stop of a slot's single point of service
//     — its exec, manager, MMU, syscall or L1.5 tile, or its last
//     slave or bank — excises the whole slot from the carve. Its tiles are daemon-marked (fail-stop
//     semantics: they drain or idle forever without tripping deadlock
//     detection), its guest is aborted, and its manager stops
//     dispatching, so the slot goes quiet once the translations in
//     flight have come back. Slots exchange no messages, so the
//     survivors need no repair: a dead slot's slaves can only ever be
//     parked or outstanding at their own, equally dead, manager.
//   - Guest retry: an aborted guest re-enters the admission queue at
//     once and takes the next free slot, resuming from its latest
//     checkpoint (from its image if it has none yet) until
//     FleetConfig.MaxAttempts admissions are spent.
//   - Per-guest deadlines: a guest still running past its deadline is
//     cancelled by its own exec tile, at the next dispatch boundary or
//     chained jump, and a queued one when a slot next looks at the
//     queue; either is reported with a DeadlineError. A deadline
//     couples no slots.
//
// Everything here runs host-side inside the discrete-event simulation
// (one supervisor process for fail cycles, spawned last so it observes
// each cycle after every tile), so the whole policy is bit-for-bit
// deterministic. Without a fail clause the supervisor is not spawned,
// and an unreachable deadline costs one comparison per dispatch and per
// chained jump: the run is otherwise bit-identical to a deadline-free
// one.

// GuestStatus is a guest's terminal disposition within a fleet run.
type GuestStatus uint8

const (
	// GuestPending: the guest never reached a terminal state — it was
	// still queued or running when the simulation ended (watchdog,
	// deadlock, or an unrelated guest's failure).
	GuestPending GuestStatus = iota
	// GuestFinished: the guest ran to a clean exit.
	GuestFinished
	// GuestAborted: the fleet gave up on the guest — its admissions
	// ran out (MaxAttempts) or the last slot was quarantined.
	GuestAborted
	// GuestDeadlineExceeded: the guest was cancelled at its deadline.
	GuestDeadlineExceeded
	// GuestInternalError: the guest's slot hosted a tile kernel that
	// panicked — a simulator bug (or injected fault), not a guest
	// program error. The panic is preserved in the guest's Err as an
	// *InternalError.
	GuestInternalError
)

func (s GuestStatus) String() string {
	switch s {
	case GuestPending:
		return "pending"
	case GuestFinished:
		return "finished"
	case GuestAborted:
		return "aborted"
	case GuestDeadlineExceeded:
		return "deadline-exceeded"
	case GuestInternalError:
		return "internal-error"
	}
	return fmt.Sprintf("GuestStatus(%d)", uint8(s))
}

// DeadlineError reports a guest cancelled at its virtual-cycle
// deadline.
type DeadlineError struct {
	Guest    int
	Deadline uint64
	Attempts int
	// Running is true when the guest was cancelled mid-run by its exec
	// tile; false when it was still waiting in the admission queue.
	Running bool
}

func (e *DeadlineError) Error() string {
	state := "queued"
	if e.Running {
		state = "running"
	}
	return fmt.Sprintf("core: guest %d missed its deadline (cycle %d, still %s after %d attempt(s))",
		e.Guest, e.Deadline, state, e.Attempts)
}

// AbortError reports a guest the fleet gave up on after a slot
// quarantine.
type AbortError struct {
	Guest    int
	Attempts int
	Cycle    uint64
	// NoSlots marks an abort forced by the last surviving slot's
	// quarantine rather than the guest's own attempts running out.
	NoSlots bool
}

func (e *AbortError) Error() string {
	if e.NoSlots {
		return fmt.Sprintf("core: guest %d aborted at cycle %d: no surviving VM slots", e.Guest, e.Cycle)
	}
	return fmt.Sprintf("core: guest %d aborted at cycle %d after %d attempt(s)", e.Guest, e.Cycle, e.Attempts)
}

// DefaultMaxAttempts is the per-guest admission cap when
// FleetConfig.MaxAttempts is zero.
const DefaultMaxAttempts = 3

// supervise is the fleet supervisor process body, spawned only under
// a plan with fail clauses. It is spawned after every tile kernel
// (highest pid), so at each fail cycle it runs after the tiles: a guest
// that finishes exactly at a fail cycle finishes first and is left
// alone. Between fail cycles it sleeps; it never sends or receives.
func (fl *fleetRun) supervise(p *sim.Proc) {
	var cycles []uint64
	for _, f := range fl.plan.Fails {
		cycles = append(cycles, f.Cycle)
	}
	slices.Sort(cycles)
	for _, ev := range slices.Compact(cycles) {
		if p.Now() < ev {
			p.Advance(ev - p.Now())
		}
		if fl.remaining == 0 {
			return // everything settled while we slept; Stop already ran
		}
		fl.failsAt(ev)
		if fl.remaining == 0 {
			p.Stop()
			return
		}
	}
}

// failsAt applies every fail-stop at this cycle, in plan order. A
// slot loses a slave or bank it has another of in place: the tile
// leaves the slot's placement, so no later handoff waits on it, and
// the running guest's manager excises it when the heartbeats stop (or
// rolls the guest back, if it held dirty lines). Any other tile of a
// slot — the exec, manager, MMU, syscall or L1.5 tile, or its last
// slave or bank — quarantines the slot, in slot-carve order. If no slot
// survives, the queue is mass-aborted.
func (fl *fleetRun) failsAt(now uint64) {
	hit := map[int]int{}
	for _, f := range fl.plan.Fails {
		if f.Cycle != now {
			continue
		}
		si := fl.slotIdx[f.Tile]
		if si < 0 || fl.slots[si].dropWorker(f.Tile) {
			continue
		}
		if _, dup := hit[si]; !dup {
			hit[si] = f.Tile
		}
	}
	for si := range fl.slots { // carve order, deterministic
		if t, ok := hit[si]; ok {
			fl.quarantineSlot(si, t, now)
		}
	}
	if len(hit) == 0 {
		return
	}
	live := 0
	for _, h := range fl.hosts {
		if !h.quarantined {
			live++
		}
	}
	if live > 0 {
		return
	}
	// The whole carve is gone: every queued guest is terminal.
	for gi := range fl.imgs {
		if fl.phase[gi] == phaseQueued {
			fl.phase[gi] = phaseAborted
			fl.errs[gi] = &AbortError{Guest: gi, Attempts: fl.attempts[gi], Cycle: now, NoSlots: true}
			fl.fleet.GuestsAborted++
			fl.remaining--
		}
	}
	fl.queue = nil
}

// quarantineSlot excises slot si from the carve: its tiles leave the
// fleet's worker pool forever, its processes become daemons, its
// manager stops dispatching, and its running guest is aborted
// (requeued or terminal).
func (fl *fleetRun) quarantineSlot(si, tile int, now uint64) {
	h := fl.hosts[si]
	if h.quarantined {
		return
	}
	h.quarantined = true
	fl.fleet.SlotsQuarantined++
	pl := fl.slots[si]
	for _, pr := range h.procs {
		pr.SetDaemon(true)
	}
	h.cur.cancelled = true
	fl.cfg.Tracer.Instant(pl.manager, "quarantine", now, "slot", uint64(si), "guest", uint64(h.guest))

	gi := h.guest
	if fl.phase[gi] == phaseRunning {
		fl.lost[gi] = rollbackReq{tile: tile, detect: now}
		fl.abortGuest(gi, now)
	}
}

// abortGuest handles the running guest of a slot being quarantined:
// back into the admission queue if it has admissions left, terminal
// GuestAborted otherwise.
func (fl *fleetRun) abortGuest(gi int, now uint64) {
	if fl.attempts[gi] >= fl.maxAttempts {
		fl.phase[gi] = phaseAborted
		fl.errs[gi] = &AbortError{Guest: gi, Attempts: fl.attempts[gi], Cycle: now}
		fl.fleet.GuestsAborted++
		fl.remaining--
		fl.cfg.Tracer.Instant(fl.slots[fl.slotOf[gi]].exec, "fleet_abort", now,
			"guest", uint64(gi), "attempts", uint64(fl.attempts[gi]))
		return
	}
	fl.queue = append(fl.queue, gi)
	fl.phase[gi] = phaseQueued
}

// missDeadline makes guest gi terminal at its deadline: cancelled by
// its exec tile (running), or dropped from the admission queue. The
// trace instant is stamped at the deadline cycle.
func (fl *fleetRun) missDeadline(gi int, running bool) {
	d := fl.deadline[gi]
	fl.phase[gi] = phaseDeadline
	fl.errs[gi] = &DeadlineError{Guest: gi, Deadline: d, Attempts: fl.attempts[gi], Running: running}
	fl.fleet.GuestsDeadlineExceeded++
	fl.remaining--
	tile := fl.slots[0].exec
	if running {
		tile = fl.slots[fl.slotOf[gi]].exec
	}
	fl.cfg.Tracer.Instant(tile, "deadline", d, "guest", uint64(gi), "deadline", d)
}

// expireQueued makes every queued guest whose deadline is before now
// terminal. A slot calls it under its exit's Fence, so the queue is
// read in serial cycle order on either loop.
func (fl *fleetRun) expireQueued(now uint64) {
	for gi, d := range fl.deadline {
		if d > 0 && d < now && fl.phase[gi] == phaseQueued {
			fl.missDeadline(gi, false)
		}
	}
	fl.queue = slices.DeleteFunc(fl.queue, func(gi int) bool { return fl.phase[gi] != phaseQueued })
}
