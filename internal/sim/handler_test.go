package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Differential test of handler processes. A handlerProgram is the
// order_test.go generator with a second kind of process added: servers,
// which receive, tick, send zero to two messages, sometimes arm a
// deadline for their next wait and sometimes stall between a receive
// and its body. Every seeded program runs twice — servers as goroutine
// processes looping on Recv/RecvDeadline/Advance, and as SpawnHandler
// processes using SetDeadline/Redeliver — and the two runs must be
// indistinguishable: the same per-process logs stamped with the global
// dispatch number, the same final clock and error, the same Dispatches
// and DeadPops. No golden: the goroutine form is the oracle.
type handlerProgram struct {
	name            string
	seed            uint64
	procs, steps    int
	limit           Time
	stopSrv, stopAt int // the stopSrv-th server calls Stop at its stopAt-th delivery; -1 = nobody
	intrPid, intrAt int // client intrPid calls Interrupt before its step intrAt; -1 = nobody
	handlers        bool
}

type diffResult struct {
	digest   string // every log entry, global dispatch numbers included
	now      Time
	err      string
	stats    Stats
	srvDisps uint64 // dispatches the servers saw, counted from inside
}

// diffServer is one server's state, shared by its two forms so both
// draw the same random stream.
type diffServer struct {
	pr       *handlerProgram
	rng      splitmix
	idx, n   int
	inbox    []*Port
	log      *[]uint64
	deadline Time // goroutine form: the deadline armed for the next wait
	timed    bool
	stalled  bool // handler form: the delivery in hand is back from its stall
	lastDisp uint64
	disps    *uint64
}

// note counts a dispatch of this server the only way a body can: the
// kernel's dispatch counter moved since the server last looked.
func (sv *diffServer) note(p *Proc) {
	if d := p.sim.stats.Dispatches; d != sv.lastDisp {
		sv.lastDisp = d
		*sv.disps++
	}
}

func (sv *diffServer) arm(p *Proc, t Time) {
	if sv.pr.handlers {
		p.SetDeadline(t)
	} else {
		sv.deadline, sv.timed = t, true
	}
}

// diffSend posts to a random inbox.
func diffSend(p *Proc, rng *splitmix, inbox []*Port, payload int) {
	i := rng.intn(len(inbox))
	p.SendPort(inbox[i], p.id, payload, p.Now()+Time(rng.intn(24)))
}

func (sv *diffServer) start(p *Proc) {
	sv.note(p)
	p.Tick(Time(sv.rng.intn(4)))
	if sv.rng.intn(2) == 0 {
		diffSend(p, &sv.rng, sv.inbox, -1)
	}
	if sv.rng.intn(2) == 0 {
		sv.arm(p, p.Now()+Time(sv.rng.intn(30)))
	}
}

// stall draws whether this delivery stalls before its body, and for how long.
func (sv *diffServer) stall() Time {
	if sv.rng.intn(8) == 0 {
		return Time(1 + sv.rng.intn(25))
	}
	return 0
}

func (sv *diffServer) body(p *Proc, m Msg) {
	sv.n++
	out := uint64(0)
	if _, timeout := m.Payload.(Timeout); !timeout {
		out = uint64(m.From) + 1
	}
	*sv.log = append(*sv.log, p.sim.stats.Dispatches, p.sh.now, uint64(sv.n), out)
	if sv.idx == sv.pr.stopSrv && sv.n == sv.pr.stopAt {
		p.Stop()
	}
	p.Tick(Time(sv.rng.intn(6)))
	for k := sv.rng.intn(3); k > 0; k-- {
		diffSend(p, &sv.rng, sv.inbox, sv.n)
	}
	if sv.rng.intn(3) == 0 { // -4..25 past the ticks: due, mid-tick and future deadlines
		sv.arm(p, p.Now()+Time(sv.rng.intn(30))-min(p.Now(), 4))
	}
}

func (pr handlerProgram) run() diffResult {
	s := New()
	s.SetLimit(pr.limit)
	inbox := make([]*Port, pr.procs)
	logs := make([][]uint64, pr.procs)
	for i := range inbox {
		inbox[i] = s.NewPort(fmt.Sprintf("in%d", i))
	}
	var srvDisps uint64
	servers := 0
	for pid := 0; pid < pr.procs; pid++ {
		pid := pid
		in := inbox[pid]
		rng := splitmix(pr.seed*1_000_003 + uint64(pid))
		switch {
		case pid%3 != 1: // client
			steps := pr.steps * (1 + pid%4) / 4
			s.Spawn(fmt.Sprintf("c%d", pid), func(p *Proc) {
				for step := 0; step < steps; step++ {
					if pid == pr.intrPid && step == pr.intrAt {
						s.Interrupt()
					}
					out := uint64(0)
					switch op := rng.intn(16); {
					case op < 4:
						p.Advance(Time(1 + rng.intn(3)))
					case op < 5:
						p.Advance(Time(1 + rng.intn(40)))
					case op < 7:
						p.Tick(Time(rng.intn(6)))
						p.Sync()
					case op < 12:
						diffSend(p, &rng, inbox, step)
					case op < 14: // a bounded wait: clients always finish
						if m, ok := p.RecvDeadline(in, p.Now()+Time(rng.intn(40))); ok {
							out = uint64(m.From) + 1
						}
					default:
						if m, ok := p.TryRecv(in); ok {
							out = uint64(m.From) + 1
						}
					}
					logs[pid] = append(logs[pid], p.sim.stats.Dispatches, p.sh.now, uint64(step), out)
				}
			})
		default:
			sv := &diffServer{pr: &pr, rng: rng, idx: servers, inbox: inbox, log: &logs[pid], disps: &srvDisps}
			servers++
			name := fmt.Sprintf("s%d", pid)
			if pr.handlers {
				s.SpawnHandler(name, in, sv.start, func(p *Proc, m Msg) {
					sv.note(p)
					if !sv.stalled {
						if d := sv.stall(); d > 0 {
							sv.stalled = true
							p.Tick(d)
							p.Redeliver(m)
							return
						}
					}
					sv.stalled = false
					sv.body(p, m)
				})
				break
			}
			s.Spawn(name, func(p *Proc) {
				sv.start(p)
				for {
					m := Msg{Payload: Timeout{}}
					if sv.timed {
						sv.timed = false
						if got, ok := p.RecvDeadline(in, sv.deadline); ok {
							m = got
						}
					} else {
						m = p.Recv(in)
					}
					sv.note(p)
					if d := sv.stall(); d > 0 {
						p.Advance(d)
						sv.note(p)
					}
					sv.body(p, m)
				}
			})
		}
	}
	err := s.Run()
	h := sha256.New()
	var buf [8]byte
	for pid, l := range logs {
		fmt.Fprintf(h, "p%d:%d\n", pid, len(l))
		for _, v := range l {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return diffResult{fmt.Sprintf("%x", h.Sum(nil)[:8]), s.Now(), fmt.Sprint(err), s.Stats(), srvDisps}
}

var handlerPrograms = []handlerProgram{
	{name: "9/deadlock", seed: 11, procs: 9, steps: 300},
	{name: "9/limit", seed: 12, procs: 9, steps: 400, limit: 700},
	{name: "9/stop-from-server", seed: 13, procs: 9, steps: 400, stopSrv: 1, stopAt: 40},
	{name: "9/interrupt", seed: 14, procs: 9, steps: 400, intrPid: 3, intrAt: 120},
	{name: "30/deadlock", seed: 15, procs: 30, steps: 200},
	{name: "30/limit", seed: 16, procs: 30, steps: 300, limit: 500},
	{name: "30/stop-from-server", seed: 17, procs: 30, steps: 300, stopSrv: 7, stopAt: 25},
	{name: "30/interrupt", seed: 18, procs: 30, steps: 300, intrPid: 8, intrAt: 50},
	{name: "64/deadlock", seed: 19, procs: 64, steps: 120},
}

func TestHandlerDifferential(t *testing.T) {
	for _, pr := range handlerPrograms {
		if pr.stopAt == 0 {
			pr.stopSrv = -1
		}
		if pr.intrAt == 0 {
			pr.intrPid = -1
		}
		for round, base := 0, pr.seed; round < 3; round++ {
			pr.seed = base + 100*uint64(round)
			name := fmt.Sprintf("%s/seed%d", pr.name, pr.seed)
			pr.handlers = false
			want := pr.run()
			pr.handlers = true
			got := pr.run()
			if got.digest != want.digest || got.now != want.now || got.err != want.err {
				t.Errorf("%s: handlers ended %s at %d with %q, goroutines %s at %d with %q",
					name, got.digest, got.now, got.err, want.digest, want.now, want.err)
			}
			gs, ws := got.stats, want.stats
			if gs.Dispatches != ws.Dispatches || gs.DeadPops != ws.DeadPops {
				t.Errorf("%s: handlers %+v, goroutines %+v: Dispatches and DeadPops must not move", name, gs, ws)
			}
			if gs.Dispatches != gs.RunOns+gs.Switches+gs.Inline || ws.Inline != 0 {
				t.Errorf("%s: stats do not add up: handlers %+v, goroutines %+v", name, gs, ws)
			}
			if gs.Inline != got.srvDisps || got.srvDisps != want.srvDisps {
				t.Errorf("%s: Inline %d, servers counted %d dispatches as handlers and %d as goroutines",
					name, gs.Inline, got.srvDisps, want.srvDisps)
			}
			if ws.Dispatches < 300 || gs.Inline < 50 || gs.Switches >= ws.Switches {
				t.Errorf("%s: program too small to mean anything: handlers %+v, goroutines %+v", name, gs, ws)
			}
		}
	}
}

// TestHandlerAsyncInterrupt: two handlers bouncing a message forever
// run entirely on Run's own goroutine; a host Interrupt from another
// goroutine must still end the run, between two dispatches.
func TestHandlerAsyncInterrupt(t *testing.T) {
	s := New()
	a, b := s.NewPort("a"), s.NewPort("b")
	bounce := func(to *Port) func(*Proc, Msg) {
		return func(p *Proc, m Msg) {
			p.Tick(1)
			to.Send(p.ID(), nil, p.Now()+1)
		}
	}
	s.SpawnHandler("ha", a, func(p *Proc) { b.Send(p.ID(), nil, p.Now()+1) }, bounce(b))
	s.SpawnHandler("hb", b, nil, bounce(a))
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Interrupt()
	}()
	err := s.Run()
	var ierr *InterruptedError
	if !errorsAs(err, &ierr) || ierr.Now == 0 {
		t.Fatalf("Run = %v, want an InterruptedError past cycle 0", err)
	}
	if st := s.Stats(); st.Switches != 0 || st.Inline != st.Dispatches || st.Inline < 100 {
		t.Errorf("stats %+v: every dispatch should have been inline", st)
	}
}

// TestHandlerPanicIsAttributed: a panic inside a handler is recovered
// where it ran — on some other process's goroutine — and reported under
// the handler's own name and pid, at the dispatch it happened in.
func TestHandlerPanicIsAttributed(t *testing.T) {
	s := New()
	in := s.NewPort("victim.in")
	s.Spawn("client", func(p *Proc) {
		p.Advance(10)
		p.SendPort(in, p.ID(), "boom", p.Now()+5)
		for {
			p.Advance(1)
		}
	})
	s.Spawn("bystander", func(p *Proc) {
		for {
			p.Advance(3)
		}
	})
	h := s.SpawnHandler("victim", in, nil, func(p *Proc, m Msg) {
		panic(fmt.Sprint("injected handler bug: ", m.Payload))
	})
	err := s.Run()
	var perr *PanicError
	if !errorsAs(err, &perr) {
		t.Fatalf("Run = %v, want *PanicError", err)
	}
	if perr.Proc != "victim" || perr.Pid != h.ID() || perr.Now != 15 {
		t.Errorf("PanicError %q pid %d at %d, want victim/%d at 15", perr.Proc, perr.Pid, perr.Now, h.ID())
	}
	if !strings.Contains(perr.Value, "injected handler bug: boom") || !strings.Contains(perr.Stack, "handler_test.go") {
		t.Errorf("PanicError value %q, stack:\n%s", perr.Value, perr.Stack)
	}
}

// TestHandlerMisuseOfRecvPanics: every operation that parks panics in a
// handler, naming it, and the run ends with that PanicError.
func TestHandlerMisuseOfRecvPanics(t *testing.T) {
	ops := map[string]func(*Proc, *Port){
		"Recv":         func(p *Proc, pt *Port) { p.Recv(pt) },
		"RecvDeadline": func(p *Proc, pt *Port) { p.RecvDeadline(pt, p.Now()+5) },
		"TryRecv":      func(p *Proc, pt *Port) { p.TryRecv(pt) },
		"Advance":      func(p *Proc, pt *Port) { p.Advance(3) },
		"Sync":         func(p *Proc, pt *Port) { p.Tick(2); p.Sync() },
		"Fence":        func(p *Proc, pt *Port) { p.Fence() },
	}
	for name, op := range ops {
		for _, inStart := range []bool{false, true} {
			s := New()
			in := s.NewPort("in")
			s.Spawn("client", func(p *Proc) {
				in.Send(p.ID(), nil, p.Now()+2)
				p.Advance(50)
			})
			start := func(*Proc) {}
			handle := func(p *Proc, m Msg) { op(p, in) }
			if inStart {
				start = func(p *Proc) { op(p, in) }
			}
			s.SpawnHandler("clumsy", in, start, handle)
			err := s.Run()
			var perr *PanicError
			if !errorsAs(err, &perr) || perr.Proc != "clumsy" ||
				!strings.Contains(perr.Value, "handler clumsy") || !strings.Contains(perr.Value, name) {
				t.Errorf("%s (in start: %v): Run = %v, want a PanicError naming handler clumsy and the operation", name, inStart, err)
			}
		}
	}
}

// TestDeadlockReportListsHandlers: at quiescence a waiting handler is
// reported blocked on its port like any process, and a daemon-marked
// one (a fail-stopped tile) is listed but excused.
func TestDeadlockReportListsHandlers(t *testing.T) {
	build := func(daemon bool) error {
		s := New()
		a, b, never := s.NewPort("a.in"), s.NewPort("b.in"), s.NewPort("never")
		ha := s.SpawnHandler("ha", a, nil, func(p *Proc, m Msg) { p.Tick(3) })
		hb := s.SpawnHandler("hb", b, nil, func(p *Proc, m Msg) {})
		hb.SetDaemon(true)
		s.Spawn("client", func(p *Proc) {
			a.Send(p.ID(), nil, p.Now()+1)
			p.Advance(10)
			if !daemon {
				p.Recv(never)
			}
		})
		ha.SetDaemon(daemon)
		return s.Run()
	}
	err := build(false)
	var dl *DeadlockError
	if !errorsAs(err, &dl) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	want := []BlockedProc{{Proc: "ha", Port: "a.in"}, {Proc: "hb", Port: "b.in", Daemon: true}, {Proc: "client", Port: "never"}}
	if fmt.Sprint(dl.Blocked) != fmt.Sprint(want) {
		t.Errorf("blocked = %+v, want %+v", dl.Blocked, want)
	}
	if err := build(true); err != nil {
		t.Errorf("only daemon handlers left waiting: Run = %v, want nil", err)
	}
}
