package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// goroutinesBeforeRun returns the goroutine count to compare against
// after a Run. A kernel goroutine's last act is a channel send, so one
// started by an earlier test (a process, a shard loop, a test's host
// goroutine) may still be on its way out; it waits those out first so
// that they cannot lower the count mid-test. (A goroutine that has
// already exited but is not yet recycled is invisible to the dump and
// still counted by NumGoroutine, so the count can be one high; a leak
// is more goroutines after than before, and that is what callers test.)
func goroutinesBeforeRun() int {
	waitFor(func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "created by tilevm/internal/sim.")
	})
	return runtime.NumGoroutine()
}

// runChecked runs s and checks what every serial run must leave behind:
// the goroutine count back at its pre-Run value, and every dispatch
// accounted for as either a run-on or a switch.
func runChecked(t *testing.T, s *Simulator) error {
	t.Helper()
	before := goroutinesBeforeRun()
	err := s.Run()
	waitFor(func() bool { return runtime.NumGoroutine() <= before })
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
	if st := s.Stats(); st.Dispatches != st.RunOns+st.Switches {
		t.Errorf("stats %+v: Dispatches != RunOns + Switches", st)
	}
	return err
}

// TestInterruptLoneSpinner: a single process looping on Advance finds
// its own wakeup next every time and never leaves its goroutine, so the
// run-on path is the only place a host Interrupt can be noticed.
func TestInterruptLoneSpinner(t *testing.T) {
	s := New()
	before := goroutinesBeforeRun()
	started := make(chan struct{})
	host := make(chan struct{})
	go func() {
		defer close(host)
		<-started
		s.Interrupt()
	}()
	s.Spawn("spinner", func(p *Proc) {
		close(started)
		for {
			p.Advance(1)
		}
	})
	err := s.Run()
	<-host
	var ierr *InterruptedError
	if !errorsAs(err, &ierr) {
		t.Fatalf("Run = %v, want *InterruptedError", err)
	}
	if ierr.Now != s.Now() {
		t.Errorf("InterruptedError now = %d, clock %d", ierr.Now, s.Now())
	}
	if st := s.Stats(); st.Switches != 1 || st.RunOns != st.Dispatches-1 {
		t.Errorf("stats %+v: a lone spinner must run on after Run's hand-off", st)
	}
	waitFor(func() bool { return runtime.NumGoroutine() <= before })
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// TestLimitTripsOnProcessGoroutine: the dispatch turn that finds the
// next event beyond the limit runs on a process goroutine — the lone
// ticker's own (a would-be run-on) or a peer's (a would-be switch) —
// and must end the run exactly where Run's own loop did.
func TestLimitTripsOnProcessGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		strides []Time
		now     Time // clock of the last event at or below the limit
	}{
		{"lone", []Time{7}, 98},
		{"pair", []Time{7, 11}, 99},
		{"exact", []Time{10, 25}, 100},
	} {
		s := New()
		s.SetLimit(100)
		for _, d := range tc.strides {
			s.Spawn("ticker", func(p *Proc) {
				for {
					p.Advance(d)
				}
			})
		}
		err := runChecked(t, s)
		var lerr *TimeLimitError
		if !errorsAs(err, &lerr) || lerr.Limit != 100 {
			t.Errorf("%s: Run = %v, want TimeLimitError{100}", tc.name, err)
		}
		if s.Now() != tc.now {
			t.Errorf("%s: clock %d after the limit tripped, want %d", tc.name, s.Now(), tc.now)
		}
		if !s.Stopped() {
			t.Errorf("%s: not Stopped after the limit tripped", tc.name)
		}
	}
}

// TestPanicWhilePeersBlocked: the panicking goroutine takes the last
// dispatch turn itself; it must hand to Run, not to a peer, and the
// blocked peers must be unwound.
func TestPanicWhilePeersBlocked(t *testing.T) {
	s := New()
	pa, pb := s.NewPort("a"), s.NewPort("b")
	s.Spawn("blocked-a", func(p *Proc) { p.Recv(pa) })
	s.Spawn("victim", func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	s.Spawn("blocked-b", func(p *Proc) { p.Recv(pb) })
	s.Spawn("sleeper", func(p *Proc) { p.Advance(10) }) // runnable at the panic's own cycle
	err := runChecked(t, s)
	var perr *PanicError
	if !errorsAs(err, &perr) {
		t.Fatalf("Run = %v, want *PanicError", err)
	}
	if perr.Proc != "victim" || perr.Pid != 1 || perr.Now != 10 || perr.Value != "boom" {
		t.Errorf("PanicError = %q pid %d at %d (%s), want victim/1/10/boom", perr.Proc, perr.Pid, perr.Now, perr.Value)
	}
	if s.Now() != 10 {
		t.Errorf("clock %d, want 10", s.Now())
	}
}

// TestPortConflictAborts: abort unwinds the calling goroutine through
// the same exit as a kill, with the error kept for Run.
func TestPortConflictAborts(t *testing.T) {
	s := New()
	pt := s.NewPort("shared")
	s.Spawn("first", func(p *Proc) { p.Recv(pt) })
	s.Spawn("second", func(p *Proc) {
		p.Advance(3)
		p.Recv(pt)
	})
	s.Spawn("bystander", func(p *Proc) {
		for {
			p.Advance(1)
		}
	})
	err := runChecked(t, s)
	var cerr *PortConflictError
	if !errorsAs(err, &cerr) {
		t.Fatalf("Run = %v, want *PortConflictError", err)
	}
	if cerr.Port != "shared" || cerr.First != "first" || cerr.Second != "second" {
		t.Errorf("PortConflictError = %+v", *cerr)
	}
	if s.Now() != 3 {
		t.Errorf("clock %d, want 3", s.Now())
	}
}

// TestLastRunnableReturns: when the last runnable process returns, its
// goroutine finds the heap empty and hands to Run, whose deadlock
// diagnosis is unchanged — daemons listed but excused.
func TestLastRunnableReturns(t *testing.T) {
	build := func(stuck bool) *Simulator {
		s := New()
		pa, pb := s.NewPort("a.in"), s.NewPort("b.in")
		s.Spawn("daemon", func(p *Proc) {
			p.SetDaemon(true)
			p.Recv(pa)
		})
		s.Spawn("worker", func(p *Proc) {
			p.Advance(40)
			p.Advance(2)
		})
		if stuck {
			s.Spawn("stuck", func(p *Proc) {
				p.Advance(5)
				p.Recv(pb)
			})
		}
		return s
	}
	s := build(true)
	err := runChecked(t, s)
	const want = "sim: deadlock at cycle 42: 2 process(es) blocked with no pending events" +
		"\n  daemon           failed (daemon) on port a.in" +
		"\n  stuck            blocked on port b.in"
	if err == nil || err.Error() != want {
		t.Errorf("Run = %v\nwant %s", err, want)
	}
	s = build(false)
	if err := runChecked(t, s); err != nil {
		t.Errorf("only a daemon blocked: Run = %v, want nil", err)
	}
	if s.Now() != 42 {
		t.Errorf("clock %d, want 42", s.Now())
	}
}

// TestStopThenAdvanceDoesNotRunOn: after Stop, the caller's own wakeup
// is the only event in the heap, and it must not be dispatched.
func TestStopThenAdvanceDoesNotRunOn(t *testing.T) {
	s := New()
	ranOn := false
	s.Spawn("stopper", func(p *Proc) {
		p.Advance(5)
		p.Stop()
		p.Advance(5)
		ranOn = true
	})
	if err := runChecked(t, s); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if ranOn {
		t.Error("process ran on past its own Stop")
	}
	if s.Now() != 5 {
		t.Errorf("clock %d, want 5", s.Now())
	}
	if st, want := s.Stats(), (Stats{Dispatches: 2, RunOns: 1, Switches: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestKillUnwindsEveryState: Stop at cycle 0 leaves one process never
// dispatched, one blocked on a port, one asleep in the heap and the
// stopper itself parked; kill must unwind all four through Run.
func TestKillUnwindsEveryState(t *testing.T) {
	s := New()
	pt := s.NewPort("in")
	var ran [4]bool
	s.Spawn("blocked", func(p *Proc) {
		ran[0] = true
		p.Recv(pt)
		t.Error("blocked process resumed")
	})
	s.Spawn("sleeper", func(p *Proc) {
		ran[1] = true
		p.Advance(100)
		t.Error("sleeper resumed")
	})
	s.Spawn("stopper", func(p *Proc) {
		ran[2] = true
		p.Stop()
		p.Advance(1)
		t.Error("stopper resumed")
	})
	s.Spawn("never", func(p *Proc) { ran[3] = true })
	if err := runChecked(t, s); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if ran != [4]bool{true, true, true, false} {
		t.Errorf("bodies entered: %v, want the first three only", ran)
	}
	if s.Now() != 0 {
		t.Errorf("clock %d, want 0", s.Now())
	}
}

// TestStatsLoneTicker: one process, n parks, every one a run-on; the
// only goroutine switch of the whole run is Run starting it.
func TestStatsLoneTicker(t *testing.T) {
	const n = 1000
	s := New()
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
	if err := runChecked(t, s); err != nil {
		t.Fatal(err)
	}
	if st, want := s.Stats(), (Stats{Dispatches: n + 1, RunOns: n, Switches: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestStatsPingPong: two processes in lockstep; each always finds the
// other's wakeup ahead of its own, so no park ever runs on.
func TestStatsPingPong(t *testing.T) {
	const n = 1000
	s := New()
	for i := 0; i < 2; i++ {
		s.Spawn("pp", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
		})
	}
	if err := runChecked(t, s); err != nil {
		t.Fatal(err)
	}
	if st, want := s.Stats(), (Stats{Dispatches: 2*n + 2, Switches: 2*n + 2}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestStatsDeadPops: a wakeup superseded by an earlier message is
// discarded when it surfaces, and counted.
func TestStatsDeadPops(t *testing.T) {
	s := New()
	pt := s.NewPort("in")
	s.Spawn("consumer", func(p *Proc) {
		if _, ok := p.RecvDeadline(pt, 50); !ok { // asleep until 50, woken at 10
			t.Error("deadline hit")
		}
		p.Advance(100) // outlive the dead entry at 50
	})
	s.Spawn("producer", func(p *Proc) {
		p.Advance(10)
		pt.Send(p.ID(), nil, p.Now())
	})
	if err := runChecked(t, s); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeadPops != 1 {
		t.Errorf("stats %+v, want 1 dead pop", st)
	}
}

// TestRecvFoldsLocalTime: a Recv entered with accrued local time does
// not spend a dispatch on it. The time becomes a floor under the one
// wakeup the wait was going to get anyway, so the receiver resumes at
// max(floor, what woke it) — where the old pre-sync followed by a wait
// resumed it — and the kernel dispatches once per received message.
// The consumer ticks, then receives; the producer sends each message at
// sendAt with the given arrival. Dispatches counts both first
// dispatches, one producer wakeup per distinct sendAt, and the
// consumer's wakeups.
func TestRecvFoldsLocalTime(t *testing.T) {
	type send struct{ at, arrival Time }
	const none = ^Time(0)
	for _, tc := range []struct {
		name     string
		tick     Time
		deadline Time // none = plain Recv
		sends    []send
		wantAt   Time // kernel clock when the receive returns
		wantMsg  Time // arrival of the message received, none = timeout
		want     Stats
	}{
		{name: "arrives before floor", tick: 20, deadline: none, sends: []send{{5, 5}},
			wantAt: 20, wantMsg: 5, want: Stats{Dispatches: 4, Switches: 4}},
		{name: "arrives after floor", tick: 20, deadline: none, sends: []send{{30, 30}},
			wantAt: 30, wantMsg: 30, want: Stats{Dispatches: 4, Switches: 4}},
		{name: "queued before entry", tick: 20, deadline: none, sends: []send{{0, 3}},
			wantAt: 20, wantMsg: 3, want: Stats{Dispatches: 3, RunOns: 1, Switches: 2}},
		{name: "queued for later", tick: 20, deadline: none, sends: []send{{0, 33}},
			wantAt: 33, wantMsg: 33, want: Stats{Dispatches: 3, RunOns: 1, Switches: 2}},
		{name: "no local time", tick: 0, deadline: none, sends: []send{{5, 9}},
			wantAt: 9, wantMsg: 9, want: Stats{Dispatches: 4, Switches: 4}},
		{name: "two arrivals under floor wake once", tick: 10, deadline: none, sends: []send{{3, 9}, {5, 8}},
			wantAt: 10, wantMsg: 8, want: Stats{Dispatches: 5, RunOns: 1, Switches: 4}},
		{name: "two arrivals over floor wake at the earlier", tick: 10, deadline: none, sends: []send{{3, 25}, {5, 15}},
			wantAt: 15, wantMsg: 15, want: Stats{Dispatches: 5, RunOns: 1, Switches: 4, DeadPops: 1}},
		{name: "deadline before floor, nothing", tick: 20, deadline: 5, sends: nil,
			wantAt: 20, wantMsg: none, want: Stats{Dispatches: 3, RunOns: 1, Switches: 2}},
		{name: "deadline before floor, message", tick: 20, deadline: 5, sends: []send{{10, 10}},
			wantAt: 20, wantMsg: 10, want: Stats{Dispatches: 4, Switches: 4}},
		{name: "deadline after floor, nothing", tick: 5, deadline: 50, sends: nil,
			wantAt: 50, wantMsg: none, want: Stats{Dispatches: 3, RunOns: 1, Switches: 2}},
		{name: "deadline after floor, message under floor", tick: 5, deadline: 50, sends: []send{{3, 3}},
			wantAt: 5, wantMsg: 3, want: Stats{Dispatches: 4, Switches: 4, DeadPops: 1}},
		{name: "deadline after floor, message between", tick: 5, deadline: 50, sends: []send{{3, 30}},
			wantAt: 30, wantMsg: 30, want: Stats{Dispatches: 4, Switches: 4, DeadPops: 1}},
		{name: "deadline in the past polls at floor", tick: 7, deadline: 0, sends: []send{{0, 2}},
			wantAt: 7, wantMsg: 2, want: Stats{Dispatches: 3, RunOns: 1, Switches: 2}},
	} {
		s := New()
		pt := s.NewPort("in")
		s.Spawn("producer", func(p *Proc) {
			for _, sd := range tc.sends {
				p.Advance(sd.at - p.Now())
				pt.Send(p.ID(), nil, sd.arrival)
			}
		})
		gotAt, gotMsg := none, none
		s.Spawn("consumer", func(p *Proc) {
			p.Tick(tc.tick)
			if tc.deadline == none {
				gotMsg = p.Recv(pt).Arrival
			} else if m, ok := p.RecvDeadline(pt, tc.deadline); ok {
				gotMsg = m.Arrival
			}
			gotAt = p.sh.now
			if p.Now() != gotAt {
				t.Errorf("%s: local time %d left over at kernel clock %d", tc.name, p.Now(), gotAt)
			}
		})
		if err := runChecked(t, s); err != nil {
			t.Errorf("%s: Run = %v", tc.name, err)
		}
		if gotAt != tc.wantAt || gotMsg != tc.wantMsg {
			t.Errorf("%s: returned at %d with message %d, want at %d with %d", tc.name, int64(gotAt), int64(gotMsg), int64(tc.wantAt), int64(tc.wantMsg))
		}
		if st := s.Stats(); st != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, st, tc.want)
		}
	}
}

// TestIdleWaiterAndLimit: the first semantic edge of the fold. Local
// time folded into a wait nothing ends is never dispatched, so by
// itself it no longer carries the clock past SetLimit: the machine goes
// quiet instead, and that is still reported as a deadlock naming the
// port — at the clock of the last event, not at the waiter's floor.
func TestIdleWaiterAndLimit(t *testing.T) {
	s := New()
	s.SetLimit(100)
	pt := s.NewPort("idle.in")
	s.Spawn("waiter", func(p *Proc) {
		p.Tick(500)
		p.Recv(pt)
		t.Error("waiter resumed")
	})
	s.Spawn("worker", func(p *Proc) { p.Advance(10) })
	err := runChecked(t, s)
	var derr *DeadlockError
	if !errorsAs(err, &derr) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	if derr.Now != 10 || len(derr.Blocked) != 1 || derr.Blocked[0] != (BlockedProc{Proc: "waiter", Port: "idle.in"}) {
		t.Errorf("DeadlockError = %+v, want waiter blocked on idle.in at 10", *derr)
	}
	if st, want := s.Stats(), (Stats{Dispatches: 3, RunOns: 1, Switches: 2}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}

	// A message does end the wait, and its wakeup at the floor is an
	// event like any other: beyond the limit it trips it.
	s = New()
	s.SetLimit(100)
	pt = s.NewPort("in")
	s.Spawn("waiter", func(p *Proc) {
		p.Tick(500)
		p.Recv(pt)
		t.Error("waiter resumed beyond the limit")
	})
	s.Spawn("sender", func(p *Proc) { pt.Send(p.ID(), nil, 10) })
	var lerr *TimeLimitError
	if err := runChecked(t, s); !errorsAs(err, &lerr) || lerr.Limit != 100 {
		t.Errorf("Run = %v, want TimeLimitError{100}", err)
	}
}

// TestTryRecvStillSyncs: a poll has no wait to fold into, so its
// accrued local time is a dispatch of its own, as before.
func TestTryRecvStillSyncs(t *testing.T) {
	s := New()
	pt := s.NewPort("in")
	pt.Send(0, nil, 5)
	s.Spawn("poller", func(p *Proc) {
		p.Tick(3)
		if _, ok := p.TryRecv(pt); ok || p.sh.now != 3 {
			t.Errorf("first poll: ok=%v at %d, want a miss at 3", ok, p.sh.now)
		}
		p.Tick(4)
		if m, ok := p.TryRecv(pt); !ok || m.Arrival != 5 || p.sh.now != 7 {
			t.Errorf("second poll: ok=%v at %d, want the message at 7", ok, p.sh.now)
		}
	})
	if err := runChecked(t, s); err != nil {
		t.Fatal(err)
	}
	if st, want := s.Stats(), (Stats{Dispatches: 3, RunOns: 2, Switches: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}
