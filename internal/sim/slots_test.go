package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// Differential test of the kernel over independent shards. A
// slotProgram is k link-free groups of processes — goroutine clients,
// handler servers with deadlines and Redeliver — whose only common
// ground is a counter touched between Fence and the next park, with
// the fences of several groups made to fall in the same cycles. Pids
// interleave the groups, so a same-cycle tie is settled across them.
// Every seeded program runs collapsed onto one shard (no assignment at
// all: the kernel this repo has always had, and the oracle) and a shard
// at a time, and no process may be able to tell which: the same
// observation log per process, the same final clock and error, the same
// number of dispatches.
type slotProgram struct {
	seed   uint64
	groups int
	steps  int
	limit  Time
	// One client — the first of group 1 — does something to the run
	// before its step `at` (0 = never).
	stopAt, intrAt, panicAt int
	deadlock                bool // group 0's first client ends waiting on a port nobody sends to
}

type slotMode bool

const (
	collapsed   slotMode = false // everything on shard 0
	slotAtATime slotMode = true  // a shard per group
)

const slotProcs = 4 // per group: three clients and a server

type slotResult struct {
	logs   [][]uint64 // per pid: (shard clock, step, observation)...
	now    Time
	err    error
	stats  Stats
	shared uint64
}

func (pr slotProgram) run(mode slotMode) slotResult {
	s := New()
	s.SetLimit(pr.limit)
	k := pr.groups
	n := k * slotProcs
	res := slotResult{logs: make([][]uint64, n)}
	inbox := make([]*Port, n)
	for pid := range inbox {
		inbox[pid] = s.NewPort(fmt.Sprintf("in%d", pid))
	}
	never := s.NewPort("never")
	// send posts to a random inbox of the sender's own group.
	send := func(p *Proc, rng *splitmix, payload int) {
		to := rng.intn(slotProcs)*k + p.id%k
		p.SendPort(inbox[to], p.id, payload, p.Now()+Time(rng.intn(24)))
	}
	special := k + 1 // pid of group 1's first client
	for pid := 0; pid < n; pid++ {
		pid := pid
		in := inbox[pid]
		rng := splitmix(pr.seed*1_000_003 + uint64(pid))
		log := func(p *Proc, step int, out uint64) {
			res.logs[pid] = append(res.logs[pid], p.sh.now, uint64(step), out)
		}
		var p *Proc
		if pid/k == slotProcs-1 { // server
			served, rearms, stalled := 0, 0, false
			arm := func(p *Proc) {
				if rearms < 40 && rng.intn(3) == 0 {
					rearms++
					p.SetDeadline(p.Now() + Time(rng.intn(30)))
				}
			}
			p = s.SpawnHandler(fmt.Sprintf("s%d", pid), in, func(p *Proc) {
				p.SetDaemon(true) // idle servers are how a finished group looks
				p.Tick(Time(rng.intn(4)))
				arm(p)
			}, func(p *Proc, m Msg) {
				if !stalled && rng.intn(8) == 0 {
					stalled = true
					p.Tick(Time(1 + rng.intn(25)))
					p.Redeliver(m)
					return
				}
				stalled = false
				served++
				out := uint64(0)
				if _, timeout := m.Payload.(Timeout); !timeout {
					out = uint64(m.From) + 1
				}
				log(p, served, out)
				p.Tick(Time(rng.intn(6)))
				for j := rng.intn(3); j > 0; j-- {
					send(p, &rng, served)
				}
				arm(p)
			})
		} else {
			p = s.Spawn(fmt.Sprintf("c%d", pid), func(p *Proc) {
				for step := 1; step <= pr.steps; step++ {
					if pid == special {
						switch step {
						case pr.stopAt:
							p.Fence()
							p.Stop()
						case pr.intrAt:
							s.Interrupt()
						case pr.panicAt:
							panic("slot bug")
						}
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
					case op < 10:
						send(p, &rng, step)
					case op < 13: // a bounded wait: clients always finish
						if m, ok := p.RecvDeadline(in, p.Now()+Time(rng.intn(40))); ok {
							out = uint64(m.From) + 1
						}
					case op < 15:
						if m, ok := p.TryRecv(in); ok {
							out = uint64(m.From) + 1
						}
					default:
						// Fence on a 64-cycle grid, where other groups' fences
						// fall too: the counter's value is the fence's place
						// in the one global order.
						p.Advance(64 - p.Now()%64)
						p.Fence()
						res.shared++
						out = res.shared
					}
					log(p, step, out)
				}
				if pr.deadlock && pid == 0 {
					p.Recv(never)
				}
			})
		}
		if mode == slotAtATime {
			p.SetShard(pid % k)
			in.SetShard(pid % k)
		}
	}
	res.err = s.Run()
	res.now, res.stats = s.Now(), s.Stats()
	return res
}

// sameLogs fails the test at the first process whose two logs differ.
func sameLogs(t *testing.T, what string, want, got [][]uint64) {
	t.Helper()
	for pid := range want {
		if !slices.Equal(want[pid], got[pid]) {
			t.Fatalf("%s: pid %d observed differently (%d vs %d entries)", what, pid, len(want[pid])/3, len(got[pid])/3)
		}
	}
}

func TestSlotAtATimeDifferential(t *testing.T) {
	for _, k := range []int{2, 3, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			pr := slotProgram{seed: 100*uint64(k) + seed, groups: k, steps: 250}
			name := fmt.Sprintf("k=%d/seed=%d", k, seed)
			want := pr.run(collapsed)
			if want.err != nil || want.shared < uint64(k) {
				t.Fatalf("%s: collapsed run: err %v, %d fenced sections", name, want.err, want.shared)
			}
			got := pr.run(slotAtATime)
			sameLogs(t, name+" slot-at-a-time", want.logs, got.logs)
			if got.err != nil || got.now != want.now || got.shared != want.shared {
				t.Errorf("%s slot-at-a-time: err %v now %d shared %d, want nil %d %d", name, got.err, got.now, got.shared, want.now, want.shared)
			}
			if st := got.stats; st.Dispatches != want.stats.Dispatches || st.Dispatches != st.RunOns+st.Switches+st.Inline {
				t.Errorf("%s slot-at-a-time: stats %+v, collapsed %+v", name, st, want.stats)
			}
			if again := pr.run(slotAtATime); again.stats != got.stats {
				t.Errorf("%s slot-at-a-time: stats %+v then %+v: not a function of the program", name, got.stats, again.stats)
			}
		}
	}
}

// TestSlotAtATimeFewerSwitches is the reason the loop exists: the same
// dispatches, fewer of them goroutine switches, because a parking
// process is far likelier to find its own group's next event on top.
func TestSlotAtATimeFewerSwitches(t *testing.T) {
	pr := slotProgram{seed: 7, groups: 8, steps: 400}
	one, slots := pr.run(collapsed).stats, pr.run(slotAtATime).stats
	if slots.Dispatches != one.Dispatches || slots.Switches >= one.Switches {
		t.Errorf("slot-at-a-time %+v, collapsed %+v: want equal dispatches and fewer switches", slots, one)
	}
}

// isPrefix reports whether a is a prefix of b.
func isPrefix(a, b []uint64) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}

func TestSlotAtATimeLimit(t *testing.T) {
	pr := slotProgram{seed: 31, groups: 3, steps: 400, limit: 900}
	want, got := pr.run(collapsed), pr.run(slotAtATime)
	var lerr *TimeLimitError
	if !errorsAs(want.err, &lerr) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("limit: collapsed %v, slot-at-a-time %v, want the same TimeLimitError", want.err, got.err)
	}
	// Every event at or below the limit and none beyond, on both loops.
	sameLogs(t, "limit", want.logs, got.logs)
	if got.now != want.now || got.now > pr.limit || got.stats.Dispatches != want.stats.Dispatches {
		t.Errorf("limit: now %d dispatches %d, collapsed %d %d", got.now, got.stats.Dispatches, want.now, want.stats.Dispatches)
	}
}

// A Stop from a fenced section ends both runs with everything below the
// stopper's key dispatched. The stopper's own shard is dispatched no
// further on either loop; another shard may already be past the key,
// so what the collapsed run saw of it is a prefix.
func TestSlotAtATimeStopUnderFence(t *testing.T) {
	pr := slotProgram{seed: 32, groups: 3, steps: 300, stopAt: 120}
	want, got := pr.run(collapsed), pr.run(slotAtATime)
	if want.err != nil || got.err != nil {
		t.Fatalf("stop: collapsed %v, slot-at-a-time %v, want nil", want.err, got.err)
	}
	ahead := 0
	for pid := range want.logs {
		switch {
		case pid%pr.groups == 1 && !slices.Equal(want.logs[pid], got.logs[pid]):
			t.Errorf("stop: pid %d of the stopper's group observed differently", pid)
		case !isPrefix(want.logs[pid], got.logs[pid]):
			t.Errorf("stop: pid %d: the collapsed log (%d entries) is no prefix of the slot-at-a-time one (%d)",
				pid, len(want.logs[pid])/3, len(got.logs[pid])/3)
		}
		ahead += len(got.logs[pid]) - len(want.logs[pid])
	}
	if ahead == 0 {
		t.Error("stop: no shard was ahead of the stopper: the program does not test what it is for")
	}
	if len(want.logs[pr.groups+1]) >= 3*pr.steps {
		t.Error("stop: the stopper ran to its end")
	}
}

// An Interrupt lands between two dispatches; raised from a process it is
// deterministic. The interrupter's shard stops where it stops collapsed;
// another is ahead of the collapsed run or behind it.
func TestSlotAtATimeInterrupt(t *testing.T) {
	pr := slotProgram{seed: 33, groups: 3, steps: 300, intrAt: 100}
	want, got := pr.run(collapsed), pr.run(slotAtATime)
	var werr, gerr *InterruptedError
	if !errorsAs(want.err, &werr) || !errorsAs(got.err, &gerr) {
		t.Fatalf("interrupt: collapsed %v, slot-at-a-time %v, want InterruptedError", want.err, got.err)
	}
	var furthest Time
	for pid := range want.logs {
		w, g := want.logs[pid], got.logs[pid]
		if n := len(g); n > 0 {
			furthest = max(furthest, g[n-3])
		}
		switch {
		case pid%pr.groups == 1 && !slices.Equal(w, g):
			t.Errorf("interrupt: pid %d of the interrupter's group observed differently", pid)
		case !isPrefix(w, g) && !isPrefix(g, w):
			t.Errorf("interrupt: pid %d: neither log is a prefix of the other", pid)
		}
	}
	if gerr.Now != got.now || gerr.Now < furthest {
		t.Errorf("interrupt: reported at %d, Now() %d, furthest observation %d", gerr.Now, got.now, furthest)
	}
}

// TestSlotAtATimeHostInterrupt: the same from another goroutine, with a
// group that never runs dry holding the turn: Run returns, and every
// process goroutine of every shard is unwound.
func TestSlotAtATimeHostInterrupt(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 6; i++ {
		p := s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Advance(1)
			}
		})
		p.SetShard(i % 3)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Interrupt()
	}()
	var ierr *InterruptedError
	if err := s.Run(); !errorsAs(err, &ierr) || ierr.Now == 0 {
		t.Fatalf("Run = %v, want an InterruptedError past cycle 0", err)
	}
	noLeak(t, before)
}

// noLeak waits for the goroutine count to come back to what it was: a
// killed process's last act is its hand-off, its exit follows.
func noLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines, %d before the run: process goroutines leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSlotAtATimePanic(t *testing.T) {
	pr := slotProgram{seed: 34, groups: 3, steps: 300, panicAt: 90}
	before := runtime.NumGoroutine()
	want, got := pr.run(collapsed), pr.run(slotAtATime)
	var werr, gerr *PanicError
	if !errorsAs(want.err, &werr) || !errorsAs(got.err, &gerr) {
		t.Fatalf("panic: collapsed %v, slot-at-a-time %v, want PanicError", want.err, got.err)
	}
	if gerr.Proc != werr.Proc || gerr.Pid != werr.Pid || gerr.Now != werr.Now || gerr.Value != werr.Value {
		t.Errorf("panic: slot-at-a-time %v, collapsed %v", gerr, werr)
	}
	noLeak(t, before)
}

func TestSlotAtATimeDeadlock(t *testing.T) {
	pr := slotProgram{seed: 35, groups: 3, steps: 200, deadlock: true}
	want, got := pr.run(collapsed), pr.run(slotAtATime)
	var werr, gerr *DeadlockError
	if !errorsAs(want.err, &werr) || !errorsAs(got.err, &gerr) {
		t.Fatalf("deadlock: collapsed %v, slot-at-a-time %v, want DeadlockError", want.err, got.err)
	}
	if !reflect.DeepEqual(werr.Blocked, gerr.Blocked) || werr.Now != gerr.Now {
		t.Errorf("deadlock reports differ:\ncollapsed:      %v\nslot-at-a-time: %v", werr, gerr)
	}
	sameLogs(t, "deadlock", want.logs, got.logs)
}

// TestFenceSerializesSharedState drives the fleet's fence pattern
// directly: four procs, a shard each, append to a shared slice inside
// Fence-guarded sections at staggered times. Shard 0 holds the turn
// first and runs worker0 up to its fence at cycle 100 before any other
// shard is dispatched; the observed sequence must still be the global
// virtual-time order.
func TestFenceSerializesSharedState(t *testing.T) {
	var order []int
	s := New()
	for i := 0; i < 4; i++ {
		i := i
		p := s.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			// Staggered so the order is 3,2,1,0 — the reverse of pid and
			// of dispatch order, catching fences granted by either.
			p.Advance(Time(100 - 10*i))
			p.Fence()
			order = append(order, i)
			p.Advance(1) // park: releases the fence
		})
		p.SetShard(i)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fence order %v, want %v", order, want)
	}
}

// TestSlotAtATimeCrossSendPanics: independent shards exchange nothing,
// and one that tries is a bug reported under the sender's name, not a
// message delivered on the wrong clock.
func TestSlotAtATimeCrossSendPanics(t *testing.T) {
	s := New()
	in := s.NewPort("in")
	s.Spawn("receiver", func(p *Proc) { p.RecvDeadline(in, 100) })
	s.Spawn("sender", func(p *Proc) { p.SendPort(in, 1, "x", p.Now()+5) }).SetShard(1)
	var perr *PanicError
	if err := s.Run(); !errorsAs(err, &perr) || perr.Proc != "sender" {
		t.Fatalf("Run = %v, want the sender's PanicError", err)
	}
}
