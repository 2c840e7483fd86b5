package sim

import (
	"strings"
	"testing"
)

// TestPanicBecomesError: a panic inside a process body must surface as
// a structured PanicError from Run — with the process identified and a
// stack captured — instead of crashing the host program, and the other
// processes must be unwound cleanly (no goroutine leak, no hang).
func TestPanicBecomesError(t *testing.T) {
	s := New()
	s.Spawn("victim", func(p *Proc) {
		p.Advance(10)
		panic("injected kernel bug")
	})
	s.Spawn("bystander", func(p *Proc) {
		for {
			p.Advance(1)
		}
	})
	err := s.Run()
	var perr *PanicError
	if !errorsAs(err, &perr) {
		t.Fatalf("Run = %v, want *PanicError", err)
	}
	if perr.Proc != "victim" || perr.Pid != 0 {
		t.Errorf("PanicError proc = %q pid %d, want victim/0", perr.Proc, perr.Pid)
	}
	if perr.Now != 10 {
		t.Errorf("PanicError now = %d, want 10", perr.Now)
	}
	if !strings.Contains(perr.Value, "injected kernel bug") {
		t.Errorf("PanicError value = %q, want the panic payload", perr.Value)
	}
	if !strings.Contains(perr.Stack, "robust_test.go") {
		t.Errorf("PanicError stack does not point at the panic site:\n%s", perr.Stack)
	}
}

// TestInterruptBeforeRun: an Interrupt issued before Run starts makes
// the run return immediately with an InterruptedError — the
// cancel-before-start race resolves to a cancelled run, not a
// completed one.
func TestInterruptBeforeRun(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("w", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(1)
		}
		ran = true
	})
	s.Interrupt()
	err := s.Run()
	var ierr *InterruptedError
	if !errorsAs(err, &ierr) {
		t.Fatalf("Run = %v, want *InterruptedError", err)
	}
	if ran {
		t.Error("process body ran to completion despite pre-run interrupt")
	}
}

// TestInterruptMidRun: an Interrupt issued from a process (standing in
// for an asynchronous host goroutine — same flag, same path) stops the
// run between event dispatches with an InterruptedError.
func TestInterruptMidRun(t *testing.T) {
	s := New()
	steps := 0
	s.Spawn("w", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(1)
			steps++
			if i == 41 {
				s.Interrupt()
			}
		}
	})
	err := s.Run()
	var ierr *InterruptedError
	if !errorsAs(err, &ierr) {
		t.Fatalf("Run = %v, want *InterruptedError", err)
	}
	if steps > 43 {
		t.Errorf("ran %d steps after the interrupt was requested", steps)
	}
	if ierr.Now < 42 {
		t.Errorf("InterruptedError now = %d, want >= 42", ierr.Now)
	}
}
