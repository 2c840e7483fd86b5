package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// errorsAs adapts errors.As to the test helpers above.
func errorsAs(err error, target any) bool { return err != nil && errors.As(err, target) }

func TestAdvanceOrdering(t *testing.T) {
	s := New()
	var trace []string
	rec := func(name string, at Time) {
		trace = append(trace, name)
		if s.Now() != at {
			t.Errorf("%s: now = %d, want %d", name, s.Now(), at)
		}
	}
	s.Spawn("a", func(p *Proc) {
		p.Advance(10)
		rec("a10", 10)
		p.Advance(20)
		rec("a30", 30)
	})
	s.Spawn("b", func(p *Proc) {
		p.Advance(5)
		rec("b5", 5)
		p.Advance(20)
		rec("b25", 25)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"b5", "a10", "b25", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTickAccumulates(t *testing.T) {
	s := New()
	s.Spawn("w", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Tick(3)
		}
		if p.Now() != 300 {
			t.Errorf("local Now = %d, want 300", p.Now())
		}
		p.Sync()
		if s.Now() != 300 {
			t.Errorf("synced Now = %d, want 300", s.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPortDelivery(t *testing.T) {
	s := New()
	pt := s.NewPort("ch")
	s.Spawn("sender", func(p *Proc) {
		p.Advance(10)
		pt.Send(p.ID(), "hello", p.Now()+7)
	})
	s.Spawn("receiver", func(p *Proc) {
		m := p.Recv(pt)
		if m.Payload.(string) != "hello" {
			t.Errorf("payload = %v", m.Payload)
		}
		if p.Now() != 17 {
			t.Errorf("recv at %d, want 17", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPortOrdersByArrival(t *testing.T) {
	s := New()
	pt := s.NewPort("ch")
	s.Spawn("sender", func(p *Proc) {
		// Sent in reverse arrival order.
		pt.Send(p.ID(), 2, 20)
		pt.Send(p.ID(), 1, 10)
		pt.Send(p.ID(), 3, 30)
	})
	s.Spawn("receiver", func(p *Proc) {
		for want := 1; want <= 3; want++ {
			m := p.Recv(pt)
			if m.Payload.(int) != want {
				t.Errorf("got %v, want %d", m.Payload, want)
			}
			if p.Now() != Time(want*10) {
				t.Errorf("arrival %d at %d, want %d", want, p.Now(), want*10)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEarlierMessageSupersedesSleep(t *testing.T) {
	s := New()
	pt := s.NewPort("ch")
	s.Spawn("late", func(p *Proc) {
		pt.Send(p.ID(), "late", 100)
	})
	s.Spawn("early", func(p *Proc) {
		p.Advance(5)
		pt.Send(p.ID(), "early", 20)
	})
	s.Spawn("receiver", func(p *Proc) {
		m := p.Recv(pt)
		if m.Payload.(string) != "early" || p.Now() != 20 {
			t.Errorf("got %v at %d, want early at 20", m.Payload, p.Now())
		}
		m = p.Recv(pt)
		if m.Payload.(string) != "late" || p.Now() != 100 {
			t.Errorf("got %v at %d, want late at 100", m.Payload, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTryRecv(t *testing.T) {
	s := New()
	pt := s.NewPort("ch")
	s.Spawn("p", func(p *Proc) {
		if _, ok := p.TryRecv(pt); ok {
			t.Error("TryRecv on empty port succeeded")
		}
		pt.Send(p.ID(), 42, p.Now())
		m, ok := p.TryRecv(pt)
		if !ok || m.Payload.(int) != 42 {
			t.Errorf("TryRecv = %v, %v", m, ok)
		}
		pt.Send(p.ID(), 43, p.Now()+10)
		if _, ok := p.TryRecv(pt); ok {
			t.Error("TryRecv returned a future message")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRecvDeadline(t *testing.T) {
	s := New()
	pt := s.NewPort("ch")
	s.Spawn("p", func(p *Proc) {
		if _, ok := p.RecvDeadline(pt, 50); ok {
			t.Error("RecvDeadline succeeded with no message")
		}
		if p.Now() != 50 {
			t.Errorf("timeout at %d, want 50", p.Now())
		}
		pt.Send(p.ID(), 1, p.Now()+5)
		m, ok := p.RecvDeadline(pt, 100)
		if !ok || p.Now() != 55 {
			t.Errorf("RecvDeadline = %v,%v at %d; want msg at 55", m, ok, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStop(t *testing.T) {
	s := New()
	pt := s.NewPort("never")
	ran := false
	s.Spawn("blocker", func(p *Proc) {
		p.Recv(pt) // blocks forever; must be unwound by Stop
		t.Error("blocker resumed")
	})
	s.Spawn("stopper", func(p *Proc) {
		p.Advance(100)
		ran = true
		p.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("stopper did not run")
	}
	if !s.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	pt := s.NewPort("never")
	s.Spawn("blocker", func(p *Proc) {
		p.Recv(pt)
	})
	if err := s.Run(); err == nil {
		t.Fatal("Run returned nil, want deadlock error")
	}
}

// TestDeadlockReportsBlockedPorts: the deadlock error must carry a
// per-process report of which port each blocked process is waiting on.
func TestDeadlockReportsBlockedPorts(t *testing.T) {
	s := New()
	pa := s.NewPort("tile3.in")
	pb := s.NewPort("tile7.in")
	s.Spawn("exec", func(p *Proc) {
		p.Advance(10)
		p.Recv(pa)
	})
	s.Spawn("bank", func(p *Proc) {
		p.Recv(pb)
	})
	err := s.Run()
	var dl *DeadlockError
	if !errorsAs(err, &dl) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	if dl.Now != 10 {
		t.Errorf("deadlock at %d, want 10", dl.Now)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %+v, want 2 entries", dl.Blocked)
	}
	if dl.Blocked[0].Proc != "exec" || dl.Blocked[0].Port != "tile3.in" {
		t.Errorf("entry 0 = %+v", dl.Blocked[0])
	}
	if dl.Blocked[1].Proc != "bank" || dl.Blocked[1].Port != "tile7.in" {
		t.Errorf("entry 1 = %+v", dl.Blocked[1])
	}
}

// TestDaemonDoesNotDeadlock: a daemon process blocked forever must not
// turn quiescence into a deadlock on its own.
func TestDaemonDoesNotDeadlock(t *testing.T) {
	s := New()
	pt := s.NewPort("dead.in")
	s.Spawn("deadtile", func(p *Proc) {
		p.SetDaemon(true)
		p.Recv(pt)
	})
	s.Spawn("worker", func(p *Proc) {
		p.Advance(100)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run = %v, want nil (only a daemon is blocked)", err)
	}
}

// TestPortConflictIsError: two processes blocking in Recv on one port
// must surface as a PortConflictError from Run, not a panic.
func TestPortConflictIsError(t *testing.T) {
	s := New()
	pt := s.NewPort("shared")
	s.Spawn("first", func(p *Proc) { p.Recv(pt) })
	s.Spawn("second", func(p *Proc) { p.Recv(pt) })
	err := s.Run()
	var pc *PortConflictError
	if !errorsAs(err, &pc) {
		t.Fatalf("Run = %v, want *PortConflictError", err)
	}
	if pc.Port != "shared" || pc.First != "first" || pc.Second != "second" {
		t.Errorf("conflict = %+v", pc)
	}
}

func TestTimeLimitErrorType(t *testing.T) {
	s := New()
	s.SetLimit(50)
	s.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(10)
		}
	})
	err := s.Run()
	var tl *TimeLimitError
	if !errorsAs(err, &tl) || tl.Limit != 50 {
		t.Fatalf("Run = %v, want *TimeLimitError{50}", err)
	}
}

func TestTimeLimit(t *testing.T) {
	s := New()
	s.SetLimit(1000)
	s.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(100)
		}
	})
	if err := s.Run(); err == nil {
		t.Fatal("Run returned nil, want limit error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New()
		pt := s.NewPort("ch")
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn("worker", func(p *Proc) {
				p.Advance(Time(10 + i%3))
				pt.Send(p.ID(), i, p.Now()+Time(i%4))
			})
		}
		s.Spawn("collector", func(p *Proc) {
			for range 8 {
				m := p.Recv(pt)
				order = append(order, m.Payload.(int))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestManyProcessesStress(t *testing.T) {
	s := New()
	pt := s.NewPort("sink")
	const n = 64
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Advance(Time(1 + (i+j)%7))
			}
			pt.Send(p.ID(), i, p.Now())
		})
	}
	got := 0
	s.Spawn("sink", func(p *Proc) {
		for range n {
			p.Recv(pt)
			got++
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != n {
		t.Fatalf("received %d messages, want %d", got, n)
	}
}

// TestCompactAfterSetStart is the rollback regression: SetStart moves
// the clock to an absolute restart cycle, so every event the restarted
// machine schedules sits far from zero. The supersede-heavy receive
// pattern must still trigger compaction (heap stays bounded), dispatch
// in exact (time, pid) order, and keep the per-shard seq counter
// strictly monotonic across compactions.
func TestCompactAfterSetStart(t *testing.T) {
	const start = Time(1) << 40
	const rounds = 500
	s := New()
	s.SetStart(start)
	if got := s.Now(); got != start {
		t.Fatalf("Now() = %d after SetStart(%d)", got, start)
	}
	pt := s.NewPort("p")
	maxLen := 0
	var lastSeq uint64
	var dispatches []Time
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Advance(1)
			pt.Send(0, i, p.Now())
			sh := s.shards[0]
			if n := len(sh.events.ev); n > maxLen {
				maxLen = n
			}
			if sh.seq <= lastSeq {
				t.Errorf("round %d: shard seq %d not monotonic (last %d)", i, sh.seq, lastSeq)
			}
			lastSeq = sh.seq
			dispatches = append(dispatches, p.Now())
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			// A far-future deadline parks a wakeup that every message
			// supersedes — the compaction-triggering pattern.
			if _, ok := p.RecvDeadline(pt, start+(1<<20)); !ok {
				t.Error("consumer hit deadline")
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxLen > 4*compactMinLen {
		t.Fatalf("event heap grew to %d entries after SetStart; compaction regressed", maxLen)
	}
	for i, at := range dispatches {
		if at < start {
			t.Fatalf("dispatch %d at cycle %d, before the SetStart origin %d", i, at, start)
		}
		if i > 0 && at < dispatches[i-1] {
			t.Fatalf("dispatch %d at cycle %d ran before cycle %d: order broken", i, at, dispatches[i-1])
		}
	}
}

// TestCompactPreservesPopOrder unit-tests the heap directly: a
// compaction over a mix of live and superseded entries (on an absolute
// SetStart-style timeline) must leave the pop order identical to the
// uncompacted heap's.
func TestCompactPreservesPopOrder(t *testing.T) {
	const start = Time(1) << 32
	mk := func() (*Simulator, []*Proc) {
		s := New()
		var procs []*Proc
		for i := 0; i < 40; i++ {
			procs = append(procs, s.Spawn(fmt.Sprintf("p%d", i), func(*Proc) {}))
		}
		s.SetStart(start)
		return s, procs
	}
	pops := func(s *Simulator, compactFirst bool) []int {
		sh := s.shards[0]
		if compactFirst {
			sh.events.compact()
		}
		var order []int
		for {
			ev, ok := sh.events.peekLive()
			if !ok {
				break
			}
			sh.events.pop()
			ev.proc.state = parkBlocked // retire so peekLive moves on
			order = append(order, ev.pid)
		}
		return order
	}
	build := func(s *Simulator, procs []*Proc) {
		sh := s.shards[0]
		// Half the procs get superseded schedules (dead entries), every
		// proc ends with one live entry at a scrambled absolute time.
		for i, p := range procs {
			sh.schedule(p, start+Time((i*7)%41))
			if i%2 == 0 {
				sh.schedule(p, start+Time((i*13)%37)) // supersedes the first
			}
		}
	}
	sa, pa := mk()
	build(sa, pa)
	want := pops(sa, false)
	sb, pb := mk()
	build(sb, pb)
	got := pops(sb, true)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("compaction changed pop order:\nplain:     %v\ncompacted: %v", want, got)
	}
	if len(want) != len(pa) {
		t.Fatalf("popped %d live events for %d procs", len(want), len(pa))
	}
}
