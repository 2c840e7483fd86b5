package core

import (
	"errors"
	"fmt"
	"sync"

	"tilevm/internal/sim"
)

// Host-side robustness plumbing for callers that keep a simulation on
// a leash — the tilevmd service daemon and the tilevm -timeout flag.
// Everything in this file is wall-clock-world machinery: it never adds
// virtual cycles, and a run that is never interrupted and never
// panics is bit-identical with or without it.

// InterruptHandle lets a host goroutine stop a running (or
// about-to-run) simulation from outside virtual time. Create one,
// place it in Config.Interrupt, and call Interrupt from any goroutine
// — a wall-clock timer, a cancellation RPC, a signal handler. The run
// then returns an error satisfying Interrupted. Calling Interrupt
// before the run starts is safe: the run is cancelled at its first
// event. The handle is single-use, like the run it guards.
type InterruptHandle struct {
	mu      sync.Mutex
	sim     *sim.Simulator
	pending bool
}

// NewInterruptHandle returns an unarmed handle.
func NewInterruptHandle() *InterruptHandle { return &InterruptHandle{} }

// Interrupt requests the bound simulation stop. Idempotent and safe
// from any goroutine at any time.
func (h *InterruptHandle) Interrupt() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.pending = true
	s := h.sim
	h.mu.Unlock()
	if s != nil {
		s.Interrupt()
	}
}

// KernelStats returns the event kernel's dispatch counters for the
// simulation the handle is bound to: zero before a run binds it. Read
// it once the run has returned.
func (h *InterruptHandle) KernelStats() sim.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sim == nil {
		return sim.Stats{}
	}
	return h.sim.Stats()
}

// bind attaches the handle to the simulator about to run, delivering
// any interrupt that raced ahead of the run's start.
func (h *InterruptHandle) bind(s *sim.Simulator) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sim = s
	pending := h.pending
	h.mu.Unlock()
	if pending {
		s.Interrupt()
	}
}

// Interrupted reports whether err (anywhere in its chain) is the
// structured host-interrupt error a cancelled run returns.
func Interrupted(err error) bool {
	var ierr *sim.InterruptedError
	return errors.As(err, &ierr)
}

// InternalError is the structured form of a panic inside a simulation
// run: the caller-facing promise is that a simulator bug (or a
// deliberately injected one) surfaces as this error — with the victim
// guest attributed and the panicking stack preserved — never as a
// crash of the calling process. The service daemon maps it onto a
// failed job; batch attribution (which service batch was running) is
// the caller's to add.
type InternalError struct {
	// Guest is the index (into the RunFleet imgs slice, or 0 for a
	// single-guest Run) of the guest whose slot hosted the panicking
	// tile kernel; -1 when the panic happened outside any slot (the
	// fleet supervisor, host-side scheduling code).
	Guest int
	// Slot is the VM slot whose tile panicked (0 for Run's one slot; -1
	// when unattributable).
	Slot int
	// Proc names the simulation process (tile kernel) that panicked;
	// empty for a host-side panic caught at the RunFleet boundary.
	Proc string
	// Cycle is the virtual time of the panic.
	Cycle uint64
	// Value is the stringified panic value.
	Value string
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *InternalError) Error() string {
	who := e.Proc
	if who == "" {
		who = "host"
	}
	if e.Guest >= 0 {
		return fmt.Sprintf("core: internal error in %s at cycle %d (guest %d, slot %d): %s",
			who, e.Cycle, e.Guest, e.Slot, e.Value)
	}
	return fmt.Sprintf("core: internal error in %s at cycle %d: %s", who, e.Cycle, e.Value)
}

// internalFromPanic wraps a panic recovered at a host-side boundary.
func internalFromPanic(r any, stack []byte) *InternalError {
	return &InternalError{
		Guest: -1,
		Slot:  -1,
		Value: fmt.Sprint(r),
		Stack: string(stack),
	}
}

// internalFromSim lifts a sim.PanicError into an InternalError with
// no guest attribution (the fleet attributes by slot).
func internalFromSim(perr *sim.PanicError) *InternalError {
	return &InternalError{
		Guest: -1,
		Slot:  -1,
		Proc:  perr.Proc,
		Cycle: perr.Now,
		Value: perr.Value,
		Stack: perr.Stack,
	}
}
