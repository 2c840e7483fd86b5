package bench

import (
	"testing"

	"tilevm/internal/sim"
)

// ProcSwitchBench returns a benchmark of the serial kernel's direct
// hand-off: procs processes advancing in lockstep, so every park finds
// another process's wakeup ahead of its own and costs one goroutine
// switch — the complement of the lone-ticker dispatch benchmark, whose
// parks all run on. One op is one park; switches/op (from sim.Stats)
// reads 1 when the benchmark measures what it says. With 2 processes
// the event heap is trivial; with 64 it has the depth of an 8×8
// fabric's.
func ProcSwitchBench(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New()
		parks := b.N/procs + 1
		for i := 0; i < procs; i++ {
			s.Spawn("lockstep", func(p *sim.Proc) {
				for j := 0; j < parks; j++ {
					p.Advance(1)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Stats().Switches)/float64(parks*procs), "switches/op")
	}
}

// HandlerDispatchBench returns a benchmark of what a service tile costs
// now that it is a handler (sim.SpawnHandler): a goroutine process sends
// a request and parks in Recv; the handler's wakeup is next, so the
// parking goroutine runs it on the spot — a few cycles of occupancy and
// a reply — and then finds its own wakeup next and runs on. One op is
// one round trip, two dispatches and no goroutine switch: switches/op
// (from sim.Stats, Run's first hand-off aside) reads 0 when the
// benchmark measures what it says. The same round trip between two
// goroutine processes is TickRecvBench, two ops and two switches.
func HandlerDispatchBench() func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New()
		req, resp := s.NewPort("server.in"), s.NewPort("client.in")
		s.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				req.Send(p.ID(), nil, p.Now()+2)
				p.Recv(resp)
			}
			p.Stop()
		})
		s.SpawnHandler("server", req, nil, func(p *sim.Proc, m sim.Msg) {
			p.Tick(3)
			resp.Send(p.ID(), nil, p.Now()+2)
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Stats().Switches-1)/float64(b.N), "switches/op")
	}
}

// TickRecvBench returns a benchmark of what a service tile does per
// request: two processes pass one message back and forth, each charging
// a few cycles of occupancy with Tick before it sends and receives
// again, so every Recv is entered with accrued local time. One op is
// one received message; dispatches/op (from sim.Stats) reads 1 now that
// Recv folds that time into the wait for the message, and read 2 when
// it first woke itself to let the time pass.
func TickRecvBench() func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New()
		in := [2]*sim.Port{s.NewPort("a"), s.NewPort("b")}
		rounds := b.N/2 + 1
		for i := range in {
			s.Spawn("pingpong", func(p *sim.Proc) {
				if i == 0 {
					in[1].Send(0, nil, p.Now()+2)
				}
				for j := 0; j < rounds; j++ {
					p.Recv(in[i])
					p.Tick(3)
					in[1-i].Send(i, nil, p.Now()+2)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		// Both ends finish receiving; the last reply is left queued.
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Stats().Dispatches)/float64(2*rounds), "dispatches/op")
	}
}
