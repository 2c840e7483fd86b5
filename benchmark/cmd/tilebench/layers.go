package main

import (
	"fmt"
	"time"

	"tilevm/internal/guest"
	"tilevm/internal/rawexec"
	"tilevm/internal/sim"
	"tilevm/internal/translate"
)

// flatOut is what the flat loop measured for one guest.
type flatOut struct {
	blocks     int     // distinct blocks dispatched, each translated once
	codeInsts  int     // host instructions in the translated blocks
	hostInsts  uint64  // host instructions retired
	decodeS    float64 // translate.DiscoverBlock alone
	translateS float64 // translate.TranslateFinal (which decodes again)
	execS      float64 // rawexec.Program.Exec: the loop's time less the two above
	spans      []span
}

type flatBlock struct {
	prog rawexec.Program
}

// flatLoop runs the guest through the translator and the host-code executor
// with nothing in between: translate on first dispatch, no code caches, no
// chaining, flat memory. It measures the two layers' own host cost from
// outside, by timing calls into their public functions. Untraced, the clock is
// read only around translations (tens of microseconds each) and the executor's
// time is what remains of the loop; traced, every Exec call gets a span, which
// costs about as much as a short block does.
func flatLoop(g *guestCase, guestIdx int, traced bool) (*flatOut, error) {
	out := &flatOut{}
	p := guest.Load(g.img)
	clk := &rawexec.CountClock{}
	env := rawexec.NewFlatEnv(p, clk)
	cpu := &rawexec.CPU{}
	cpu.LoadGuest(&p.CPU)
	tr := translate.New(translate.Options{Optimize: true})
	cache := map[uint32]*flatBlock{}
	lane := hostLaneFlat + guestIdx
	t0 := time.Now()
	ns := func(t time.Time) uint64 { return uint64(t.Sub(t0)) }
	add := func(name string, a, b time.Time) {
		out.spans = append(out.spans, span{Name: name, Clock: "ns", Lane: lane, Guest: guestIdx, Start: ns(a), End: ns(b), Parent: -1})
	}
	if traced {
		add("flat_loop", t0, t0) // the lane's root; its end is set when the loop is over
	}
	pc := p.PC
	for !p.Kern.Exited {
		blk, ok := cache[pc]
		if !ok {
			a := time.Now()
			if _, err := translate.DiscoverBlock(p.Mem, pc); err != nil {
				return nil, fmt.Errorf("%s: decode at %#x: %w", g.name, pc, err)
			}
			m := time.Now()
			res, err := tr.TranslateFinal(p.Mem, pc)
			if err != nil {
				return nil, fmt.Errorf("%s: translate at %#x: %w", g.name, pc, err)
			}
			z := time.Now()
			out.decodeS += m.Sub(a).Seconds()
			out.translateS += z.Sub(m).Seconds()
			if traced {
				add("x86.DiscoverBlock", a, m)
				add("translate.TranslateFinal", m, z)
			}
			blk = &flatBlock{}
			blk.prog.Sync(res.Code)
			cache[pc] = blk
			out.codeInsts += len(res.Code)
		}
		var a time.Time
		if traced {
			a = time.Now()
		}
		exit, err := blk.prog.Exec(cpu, 0, clk, env, 0)
		if traced {
			add("rawexec.Exec", a, time.Now())
		}
		if err != nil {
			return nil, fmt.Errorf("%s: exec of block %#x: %w", g.name, pc, err)
		}
		if env.SMCPending {
			return nil, fmt.Errorf("%s: block %#x stored into translated code", g.name, pc)
		}
		out.hostInsts += exit.Insts
		pc = exit.NextPC
	}
	end := time.Now()
	out.blocks = len(cache)
	out.execS = end.Sub(t0).Seconds() - out.decodeS - out.translateS
	if traced {
		out.spans[0].End = ns(end)
	}
	if p.Kern.ExitCode != g.ref.ExitCode {
		return nil, fmt.Errorf("%s: flat loop exit code %d, reference %d", g.name, p.Kern.ExitCode, g.ref.ExitCode)
	}
	return out, nil
}

// Host-span lanes: one per probe, so that spans of a lane nest.
const (
	hostLanePass  = 1000
	hostLaneSim   = 1001
	hostLaneShard = 1002
	hostLaneFlat  = 2000 // plus the guest's index
)

// The sim micro-kernels, as cmd/simbench runs them: the cost of one event
// dispatch and of one advance-send-receive hand-off on the public sim API.
const (
	simDispatchN = 1_000_000
	simRecvN     = 300_000
)

func simEventDispatch(n int) (nsPerOp float64, err error) {
	s := sim.New()
	s.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("sim event-dispatch kernel: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

func simAdvanceRecv(n int) (nsPerOp float64, err error) {
	s := sim.New()
	pt := s.NewPort("bench")
	payload := &struct{ n int }{}
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
			pt.Send(0, payload, p.Now())
		}
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Recv(pt)
		}
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("sim advance-recv kernel: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}
