package sim

import "testing"

// BenchmarkEventDispatch measures a park that runs on: one process
// repeatedly advancing virtual time finds its own wakeup next, so every
// iteration is one heap push, one pop and the stop check, with no
// goroutine switch. BenchmarkProcSwitch (switch_bench_test.go) is the
// park that does switch.
func BenchmarkEventDispatch(b *testing.B) {
	s := New()
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdvanceRecvRoundTrip measures the message path: a producer
// advancing and sending, a consumer blocking in Recv, per iteration.
func BenchmarkAdvanceRecvRoundTrip(b *testing.B) {
	s := New()
	pt := s.NewPort("bench")
	payload := &struct{ n int }{}
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			pt.Send(0, payload, p.Now())
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Recv(pt)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestStaleEventsCompacted drives the supersede-heavy pattern that used
// to accumulate dead wakeups: a consumer parked until a far deadline
// whose sleep is repeatedly superseded by earlier messages. Each
// supersede strands a dead entry at the deadline; without compaction
// the heap grows by one entry per round until virtual time reaches the
// deadline. The lazy-deletion compaction must keep the heap bounded.
func TestStaleEventsCompacted(t *testing.T) {
	const rounds = 1000
	const deadline = Time(1 << 40)
	s := New()
	pt := s.NewPort("p")
	maxLen := 0
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Advance(1)
			pt.Send(0, i, p.Now())
			if n := len(s.shards[0].events.ev); n > maxLen {
				maxLen = n
			}
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if _, ok := p.RecvDeadline(pt, deadline); !ok {
				t.Error("consumer hit deadline")
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Without compaction the heap peaks near `rounds`; with it, dead
	// entries are swept once they exceed half of a ≥64-entry heap.
	if maxLen > 4*compactMinLen {
		t.Fatalf("event heap grew to %d entries; stale wakeups are not being compacted", maxLen)
	}
}
