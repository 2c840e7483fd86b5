package core

import (
	"fmt"

	"tilevm/internal/fault"
	"tilevm/internal/raw"
	"tilevm/internal/sim"
)

// Fleet-level fault tolerance (DESIGN.md §10). The per-VM recovery
// machinery — excision, heartbeats, rollback — assumes a robust
// protocol stack that fleet slots deliberately do not run: every slot
// service point (manager, exec, MMU, syscall proxy) is a single tile,
// so a fail-stop anywhere in a slot is unrecoverable in place. The
// fleet layer recovers at a coarser grain instead:
//
//   - Slot quarantine: a fail-stop inside a slot excises the whole
//     slot from the carve. Its tiles are daemon-marked (fail-stop
//     semantics: they drain or idle forever without tripping deadlock
//     detection), its guest is aborted, and its manager stops
//     dispatching, so the slot goes quiet once the translations in
//     flight have come back. Slots exchange no messages, so the
//     survivors need no repair: a dead slot's slaves can only ever be
//     parked or outstanding at their own, equally dead, manager.
//   - Guest retry with deterministic backoff: an aborted guest
//     re-enters the admission queue with an exponential, seeded,
//     virtual-time backoff, restarting from its image — or from its
//     latest checkpoint when rollback recovery is configured — until
//     FleetConfig.MaxAttempts admissions are spent.
//   - Per-guest deadlines: a guest still running (or still queued) at
//     its deadline is cancelled and reported with a DeadlineError.
//
// Everything here runs host-side inside the discrete-event simulation
// (one supervisor process, spawned last so it observes each cycle
// after every tile), so the whole policy is bit-for-bit deterministic
// at a fixed seed. When the fault plan is empty and no deadline is
// set, the supervisor is not spawned and none of these code paths
// run: a policy-free fleet is bit-identical to the pre-policy
// scheduler.

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
	// Running is true when the guest was cancelled mid-run (via the
	// vmSwitch handshake when its slot moved on); false when it was
	// still waiting in the admission queue.
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

// Fleet retry-policy defaults (FleetConfig zero values).
const (
	// DefaultMaxAttempts is the per-guest admission cap when
	// FleetConfig.MaxAttempts is zero.
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the base backoff in virtual cycles when
	// FleetConfig.RetryBackoff is zero.
	DefaultRetryBackoff = 50_000
)

// fleetSplitmix is the splitmix64 output function (a local copy of the
// fault package's unexported seed whitener), used to derive the
// deterministic per-(guest, attempt) backoff jitter.
func fleetSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryBackoff is the delay before re-admitting a guest after its
// attempt-th admission was aborted: exponential in the attempt count
// with a seeded jitter in [0, base) so retries of guests aborted by
// the same fault do not re-collide on the same release cycle. Fully
// deterministic: a function of (base, seed, guest, attempt) only.
func retryBackoff(base, seed uint64, gi, attempt int) uint64 {
	d := base << uint(attempt-1)
	if d < base || d > base<<20 { // shift overflow or absurd growth
		d = base << 20
	}
	jitter := fleetSplitmix(seed ^ fleetSplitmix(uint64(gi)<<32|uint64(attempt)))
	return d + jitter%base
}

// validateFleetFaultPlan rejects fault plans the fleet policy layer
// cannot honor. Fleet slots run the lean (non-robust) protocol stack —
// no watchdogs, heartbeats, retries, or at-most-once RPC — so
// probabilistic message faults would wedge a slot rather than exercise
// recovery; only fail-stop and stall clauses are meaningful, and they
// must target tiles inside carved slots (a fault on an uncarved tile
// could never be observed).
func validateFleetFaultPlan(plan *fault.Plan, slots []placement, p raw.Params) error {
	if plan.DropProb > 0 || plan.DelayProb > 0 || plan.CorruptProb > 0 || plan.DRAMProb > 0 {
		return fmt.Errorf("core: fleet fault plans support only fail: and stall: clauses " +
			"(probabilistic message/DRAM faults need the robust protocol stack, which fleet slots do not run)")
	}
	idx := slotIndexOf(slots)
	check := func(kind string, tile int, cycle uint64) error {
		if tile < 0 || tile >= p.Tiles() {
			return fmt.Errorf("core: fleet fault plan %s targets tile %d outside the %d×%d fabric",
				kind, tile, p.Width, p.Height)
		}
		if _, ok := idx[tile]; !ok {
			return fmt.Errorf("core: fleet fault plan %s targets tile %d, which is in no carved VM slot",
				kind, tile)
		}
		if cycle == 0 {
			return fmt.Errorf("core: fleet fault plan %s targets tile %d at cycle 0 (before any guest is admitted)",
				kind, tile)
		}
		return nil
	}
	for _, f := range plan.Fails {
		if err := check("fail", f.Tile, f.Cycle); err != nil {
			return err
		}
	}
	for _, s := range plan.Stalls {
		if err := check("stall", s.Tile, s.Cycle); err != nil {
			return err
		}
	}
	return nil
}

// policyEvents returns the sorted distinct virtual cycles at which the
// supervisor must act: every fail-stop cycle and every effective guest
// deadline.
func (fl *fleetRun) policyEvents() []uint64 {
	set := map[uint64]bool{}
	if fl.plan != nil {
		for _, f := range fl.plan.Fails {
			set[f.Cycle] = true
		}
	}
	for _, d := range fl.deadline {
		if d > 0 {
			set[d] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ { // insertion sort; event lists are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// supervise is the fleet supervisor process body. It is spawned after
// every tile kernel (highest pid), so at each event cycle it runs
// after the tiles: a guest that finishes exactly at a fail or deadline
// cycle finishes first and is left alone. Between events it sleeps; it
// never sends or receives, so a run whose faults never fire is not
// perturbed at all.
func (fl *fleetRun) supervise(p *sim.Proc) {
	for _, ev := range fl.events {
		if p.Now() < ev {
			p.Advance(ev - p.Now())
		}
		if fl.remaining == 0 {
			return // everything settled while we slept; Stop already ran
		}
		fl.failsAt(ev)
		fl.deadlinesAt(ev)
		if fl.remaining == 0 {
			p.Stop()
			return
		}
	}
}

// failsAt quarantines every slot hit by a fail-stop at this cycle, in
// slot-carve order, then mass-aborts the queue if no slot survived.
func (fl *fleetRun) failsAt(now uint64) {
	if fl.plan == nil {
		return
	}
	hit := map[int]bool{}
	for _, f := range fl.plan.Fails {
		if f.Cycle != now {
			continue
		}
		if si, ok := fl.slotIdx[f.Tile]; ok {
			hit[si] = true
		}
	}
	for si := range fl.slots { // carve order, deterministic
		if hit[si] {
			fl.quarantineSlot(si, now)
		}
	}
	if len(hit) == 0 {
		return
	}
	live := 0
	for si := range fl.slots {
		if !fl.slotQuarantined[si] {
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
func (fl *fleetRun) quarantineSlot(si int, now uint64) {
	if fl.slotQuarantined[si] {
		return
	}
	fl.slotQuarantined[si] = true
	fl.fleet.SlotsQuarantined++
	h := fl.hosts[si]
	h.quarantined = true
	pl := fl.slots[si]
	for _, pr := range h.procs {
		pr.SetDaemon(true)
	}
	e := h.cur
	e.cancelled, e.quarantined = true, true
	fl.cfg.Tracer.Instant(pl.manager, "quarantine", now, "slot", uint64(si), "guest", uint64(h.guest))

	gi := h.guest
	if fl.phase[gi] == phaseRunning {
		fl.abortGuest(gi, now)
	}
}

// abortGuest handles the running guest of a slot being quarantined:
// back into the admission queue with backoff if it has admissions
// left, terminal GuestAborted otherwise.
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
	release := now + retryBackoff(fl.backoffBase, fl.fc.RetrySeed, gi, fl.attempts[gi])
	fl.queue = append(fl.queue, pendingGuest{gi: gi, release: release})
	fl.phase[gi] = phaseQueued
}

// deadlinesAt cancels every guest whose deadline is this cycle and is
// not yet terminal. A running guest is cancelled mid-run: its exec
// tile breaks at the next dispatch boundary and the slot hands off to
// the next queued guest through the ordinary vmSwitch handshake.
func (fl *fleetRun) deadlinesAt(now uint64) {
	for gi := range fl.imgs {
		if fl.deadline[gi] != now {
			continue
		}
		switch fl.phase[gi] {
		case phaseRunning:
			e := fl.engines[gi]
			e.cancelled = true
			fl.phase[gi] = phaseDeadline
			fl.errs[gi] = &DeadlineError{Guest: gi, Deadline: now, Attempts: fl.attempts[gi], Running: true}
			fl.fleet.GuestsDeadlineExceeded++
			fl.remaining--
			fl.cfg.Tracer.Instant(fl.slots[fl.slotOf[gi]].exec, "deadline", now,
				"guest", uint64(gi), "deadline", now)
		case phaseQueued:
			kept := fl.queue[:0]
			for _, pg := range fl.queue {
				if pg.gi != gi {
					kept = append(kept, pg)
				}
			}
			fl.queue = kept
			fl.phase[gi] = phaseDeadline
			fl.errs[gi] = &DeadlineError{Guest: gi, Deadline: now, Attempts: fl.attempts[gi], Running: false}
			fl.fleet.GuestsDeadlineExceeded++
			fl.remaining--
			fl.cfg.Tracer.Instant(fl.slots[0].exec, "deadline", now, "guest", uint64(gi), "deadline", now)
		}
	}
}
