// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulator owns a set of processes, each running in its own goroutine
// but with strictly sequential, deterministic interleaving: exactly one
// process executes at a time, and runnable processes are dispatched in
// (virtual time, process id, enqueue order) order. Processes model tile
// kernels in the Raw machine simulation; they advance virtual time with
// Advance, exchange messages through Ports, and may stop the whole
// simulation with Stop.
//
// Virtual time is measured in cycles (uint64). The kernel never invents
// time: it only moves to timestamps that processes or messages carry, so
// two runs of the same program are bit-for-bit identical.
//
// The kernel has no scheduler goroutine: a process that parks pops the
// next event itself and either keeps running (the event is its own
// wakeup) or resumes that event's process directly; a handler process
// (SpawnHandler) has no goroutine at all and runs to completion on
// whichever goroutine popped its wakeup.
//
// Processes and ports may be partitioned into shards (Proc.SetShard,
// Port.SetShard) that exchange no messages. When more than one shard
// holds a process, each keeps its own heap and clock and the one
// dispatch turn stays on a shard while it has an event it may dispatch,
// and only then moves to the shard whose next key is least (shard.next,
// Simulator.turn): independent shards, one at a time, each with its
// working set to itself. Fence is what orders the code that touches
// state the shards share. With everything on one shard the run is one
// heap.
package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
)

// Time is a point in virtual time, in cycles.
type Time = uint64

// event is a scheduled wakeup for process pid. wake matches the
// process's wakeSeq at scheduling time; a mismatch at dispatch means the
// event was superseded by a later (earlier-in-time) schedule and is
// skipped. wakeSeq only grows, so among one process's entries wake is
// also their scheduling order, the tie-break after (at, pid).
//
// An event holds no pointer: the process is found by pid in the
// simulator's process table. Every heap sift moves events, and while
// the garbage collector is marking, every move of a value that holds a
// pointer runs a write barrier; a pointer-free event moves as plain
// memory.
type event struct {
	at   Time
	wake uint64
	pid  int
}

// eventHeap is a concrete-typed binary min-heap of events. It replaces
// container/heap so push and pop move events without boxing them into
// interface values (the scheduler's hottest path), and it tracks the
// number of dead (superseded) entries so the heap can be compacted when
// stale wakeups dominate instead of waiting for them to surface at pop.
type eventHeap struct {
	ev   []event
	dead int // superseded entries still in ev
}

// compactMinLen is the heap size below which compaction is not worth
// the re-heapify cost.
const compactMinLen = 64

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	return a.wake < b.wake
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	// Sift up.
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
}

// pop removes and returns the minimum event. Callers must check
// len(h.ev) > 0 first.
func (h *eventHeap) pop() event {
	e := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	h.siftDown(0)
	return e
}

// peekLive discards dead entries from the top of the heap and returns
// the minimum live event without removing it.
func (h *eventHeap) peekLive(procs []*Proc) (event, bool) {
	for len(h.ev) > 0 {
		if h.ev[0].live(procs) {
			return h.ev[0], true
		}
		h.pop()
		h.dead--
	}
	return event{}, false
}

// live reports whether e is still the scheduled wakeup of its process
// (not superseded by a later schedule, and the process still runnable).
func (e *event) live(procs []*Proc) bool {
	p := procs[e.pid]
	return p.state == parkRunnable && e.wake == p.wakeSeq
}

// compact removes dead entries in place and re-heapifies. Called when
// superseded wakeups exceed half the heap, so heap operations stay
// O(log live) instead of O(log total) and stale entries do not
// accumulate without bound in supersede-heavy phases. Pop order is
// unaffected: at most one live event exists per process, so the
// (at, pid, wake) comparator is a total order on live events and any
// valid heap yields the same pop sequence.
func (h *eventHeap) compact(procs []*Proc) {
	kept := h.ev[:0]
	for i := range h.ev {
		if h.ev[i].live(procs) {
			kept = append(kept, h.ev[i])
		}
	}
	h.ev = kept
	h.dead = 0
	for i := len(h.ev)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// shard is one event sub-loop: a clock, an event heap, and the
// processes and ports assigned to it. A simulation is one shard (index
// 0), or several independent ones taking the one dispatch turn in
// succession, whose processes dispatch each other (next).
type shard struct {
	sim    *Simulator
	idx    int
	now    Time
	events eventHeap

	// Why next may dispatch nothing here. A process of this shard is
	// parked in Fence at dispatch key (fenceAt, fence.id), or, with held
	// set and no fence, the next event lies beyond the time limit.
	held    bool
	fence   *Proc
	fenceAt Time
}

// schedule enqueues a wakeup for p at time at, superseding any
// previously scheduled wakeup.
func (sh *shard) schedule(p *Proc, at Time) {
	if p.state == parkRunnable {
		// The process already has a wakeup in the heap; bumping wakeSeq
		// makes that entry dead until popped or compacted.
		sh.events.dead++
	}
	p.wakeSeq++
	p.wakeAt = at
	sh.events.push(event{at: at, wake: p.wakeSeq, pid: p.id})
	p.state = parkRunnable
	if n := len(sh.events.ev); n >= compactMinLen && sh.events.dead > n/2 {
		sh.events.compact(sh.sim.procs)
	}
}

// Simulator is a deterministic discrete-event scheduler.
type Simulator struct {
	shards   []*shard
	procs    []*Proc
	ports    []*Port
	stopFlag atomic.Bool
	intrFlag atomic.Bool // host-side Interrupt requested
	limit    Time        // 0 means no limit
	started  bool
	slotwise bool          // run over independent shards: Fence orders them
	abortErr error         // fatal error raised from inside a process, or the time limit
	stats    Stats         // dispatch counters
	parked   chan struct{} // the dispatch loop is over, or a killed process has unwound
}

// Stats counts what the kernel did with its events. Every dispatch is a
// run-on (the parking process found its own wakeup next and kept its
// goroutine), a switch (control moved to another goroutine, Run's first
// hand-off included) or inline (a handler, run by whichever goroutine
// popped it), so Dispatches == RunOns + Switches + Inline; DeadPops are
// superseded wakeups discarded at the top of the heap. A Fence grant is
// not a dispatch and counts as none of them. The counts are a
// deterministic function of the program, over one shard or several.
type Stats struct {
	Dispatches, RunOns, Switches, DeadPops, Inline uint64
}

// Stats returns the kernel's dispatch counters. Call it after Run, or
// from inside a process body.
func (s *Simulator) Stats() Stats { return s.stats }

// BlockedProc is one entry of a DeadlockError: a process stuck in Recv
// with no way to make progress, and the port it is waiting on.
type BlockedProc struct {
	Proc string
	Port string // empty if the process blocked outside a port Recv
	// Daemon marks a process excused from deadlock detection (a
	// fail-stopped tile draining its inbox); it is reported for
	// diagnosis but does not by itself constitute a deadlock.
	Daemon bool
}

// DeadlockError reports global quiescence with blocked processes: no
// event is pending and at least one non-daemon process is waiting on a
// port. The Blocked list is in process-id order, so the report is
// deterministic.
type DeadlockError struct {
	Now     Time
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at cycle %d: %d process(es) blocked with no pending events", e.Now, len(e.Blocked))
	for _, p := range e.Blocked {
		port := p.Port
		if port == "" {
			port = "<no port>"
		}
		state := "blocked"
		if p.Daemon {
			state = "failed (daemon)"
		}
		fmt.Fprintf(&b, "\n  %-16s %s on port %s", p.Proc, state, port)
	}
	return b.String()
}

// PortConflictError reports two processes blocking in Recv on the same
// port, a structural misuse of the machine model.
type PortConflictError struct {
	Port   string
	First  string // the process already waiting
	Second string // the process whose Recv detected the conflict
}

func (e *PortConflictError) Error() string {
	return fmt.Sprintf("sim: processes %q and %q both blocked in Recv on port %q",
		e.First, e.Second, e.Port)
}

// TimeLimitError reports that virtual time exceeded the SetLimit
// watchdog.
type TimeLimitError struct{ Limit Time }

func (e *TimeLimitError) Error() string {
	return fmt.Sprintf("sim: time limit %d exceeded", e.Limit)
}

// PanicError reports a panic inside a process body. The kernel
// converts the panic into a structured simulation error instead of
// letting it unwind the host program: the remaining processes are
// killed cleanly and Run returns this error, so a buggy (or
// deliberately sabotaged) tile kernel can never take down a caller
// that has fleets of other work in flight.
type PanicError struct {
	Proc  string // name of the process that panicked
	Pid   int    // its process id (spawn order)
	Now   Time   // the shard clock at dispatch time
	Value string // the recovered panic value, stringified
	Stack string // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q (pid %d) panicked at cycle %d: %s", e.Proc, e.Pid, e.Now, e.Value)
}

// InterruptedError reports a host-side Interrupt: the simulation was
// stopped from outside virtual time (a wall-clock timeout, an
// operator cancellation) rather than by any process.
type InterruptedError struct{ Now Time }

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sim: interrupted by the host at cycle %d", e.Now)
}

// Interrupt requests a host-side stop. Unlike Stop it may be called
// from any goroutine at any time — before Run, mid-run, or after —
// and the in-flight (or next) Run returns an InterruptedError once
// the currently dispatched process parks. Virtual time never moves
// backwards and no event is half-applied: the interrupt lands between
// event dispatches, exactly like a time-limit stop.
func (s *Simulator) Interrupt() {
	s.intrFlag.Store(true)
	s.stopFlag.Store(true)
}

// New returns an empty simulator.
func New() *Simulator {
	s := &Simulator{parked: make(chan struct{})}
	s.shards = []*shard{{sim: s}}
	return s
}

// shard returns (creating as needed) the shard with the given index.
func (s *Simulator) shard(i int) *shard {
	if i < 0 {
		panic("sim: negative shard index")
	}
	for len(s.shards) <= i {
		s.shards = append(s.shards, &shard{sim: s, idx: len(s.shards)})
	}
	return s.shards[i]
}

// Now returns the current virtual time. Inside a process body, prefer
// Proc.Now, which includes the process's accumulated (not yet synced)
// local cycles. Independent shards each keep their own clock and Now
// reports the furthest: after Run, the time of the last event
// dispatched anywhere.
func (s *Simulator) Now() Time {
	now := s.shards[0].now
	for _, sh := range s.shards[1:] {
		now = max(now, sh.now)
	}
	return now
}

// SetLimit aborts the simulation when virtual time reaches t.
// A limit of 0 (the default) means no limit.
func (s *Simulator) SetLimit(t Time) { s.limit = t }

// Stopped reports whether Stop has been called (or the time limit hit).
func (s *Simulator) Stopped() bool { return s.stopFlag.Load() }

// errKilled unwinds a process goroutine when the simulation ends
// before the process body returns.
type errKilled struct{}

// parkKind distinguishes why a process is parked.
type parkKind int

const (
	parkRunnable parkKind = iota // has a wakeup event in the heap
	parkBlocked                  // waiting on a port; no event scheduled
	parkDone                     // process body returned
)

// Proc is a simulation process. All methods must be called from within
// the process's own body function.
type Proc struct {
	sim       *Simulator
	sh        *shard
	id        int
	name      string
	resume    chan struct{}
	state     parkKind
	local     Time // cycles accumulated since last sync
	floor     Time // Recv: no wakeup before this (local time folded into the wait)
	killed    bool
	body      func(*Proc)
	wakeSeq   uint64
	wakeAt    Time
	blockedOn int // id of the port this process is blocked in Recv on, or noID
	daemon    bool

	// Handler processes only (SpawnHandler): no goroutine, no resume.
	port     *Port            // the one port it serves
	start    func(*Proc)      // run at the first dispatch, then nil
	handle   func(*Proc, Msg) // run once per delivery
	deadline Time             // SetDeadline: a Timeout is due then, if timed
	timed    bool
	held     Msg // Redeliver: what handle gets again, if again
	again    bool
}

// Spawn registers a new process. The body runs when Run is called.
// Processes are dispatched in id order on ties, and ids are assigned in
// spawn order. New processes start on shard 0; see SetShard.
func (s *Simulator) Spawn(name string, body func(*Proc)) *Proc {
	if s.started {
		panic("sim: Spawn after Run")
	}
	p := &Proc{
		sim:       s,
		sh:        s.shards[0],
		id:        len(s.procs),
		name:      name,
		resume:    make(chan struct{}),
		body:      body,
		blockedOn: noID,
	}
	s.procs = append(s.procs, p)
	return p
}

// SetShard assigns the process to shard i. Must be called before Run.
func (p *Proc) SetShard(i int) {
	if p.sim.started {
		panic("sim: SetShard after Run")
	}
	p.sh = p.sim.shard(i)
}

// SpawnHandler registers a run-to-completion process serving pt: an id
// and a place in the dispatch order like any other, but no goroutine.
// Its first dispatch calls start (nil for none); from then on it waits
// on pt as a body of for { handle(p, p.Recv(pt)) } would, and serve runs
// each delivery on whichever goroutine popped the wakeup. Neither
// function may park (mayPark); Tick, Send, Stop, SetDeadline and
// Redeliver are what a handler has.
func (s *Simulator) SpawnHandler(name string, pt *Port, start func(*Proc), handle func(*Proc, Msg)) *Proc {
	p := s.Spawn(name, nil)
	p.resume = nil // never resumed: nothing waits
	p.port, p.start, p.handle = pt, start, handle
	return p
}

// Run executes the simulation until Stop is called, the time limit is
// reached, or no process has a pending event (global quiescence, which
// for a well-formed machine means deadlock and is reported as an error).
func (s *Simulator) Run() error {
	if s.started {
		panic("sim: Run called twice")
	}
	s.started = true
	if s.slotwise = s.independent(); !s.slotwise {
		// One shard holds every process: everything rides shard 0.
		sh := s.shards[0]
		for _, p := range s.procs {
			p.sh = sh
		}
		for _, pt := range s.ports {
			pt.sh = sh
		}
	}
	for _, p := range s.procs {
		if p.handle == nil {
			go p.run()
		}
		p.sh.schedule(p, p.sh.now)
	}
	// Run only starts the chain: from here every process that gives up
	// control dispatches its successor itself, and the last one signals
	// parked when next says the loop is over.
	if first := s.shards[0].next(nil); first != nil {
		first.resume <- struct{}{}
		<-s.parked
	}
	err := s.abortErr
	if err == nil && s.intrFlag.Load() {
		err = &InterruptedError{Now: s.Now()}
	}
	if err == nil && !s.stopFlag.Load() {
		err = s.deadlockOrNil(s.Now())
	}
	s.kill()
	return err
}

// independent reports whether Run dispatches shard by shard: processes
// on more than one shard. Shards exchange no messages, so nothing one
// does can schedule an event on another.
func (s *Simulator) independent() bool {
	for _, p := range s.procs {
		if p.sh != s.procs[0].sh {
			return true
		}
	}
	return false
}

// next is one turn of the dispatch loop: it pops the shard's next live
// event, moves the shard's clock to it and returns its
// process — a handler's event it serves on the spot and pops again — or
// returns nil when the loop is over: stopFlag set (Stop, Interrupt,
// abort, panic, kill), or turn found nothing left to dispatch anywhere.
// The turn stays on sh while sh has an event it may dispatch; an event
// beyond the time limit goes back and holds the shard. It runs on
// whichever goroutine is giving up control (self, nil for Run), so there
// is no scheduler goroutine to bounce through; the pop order is the
// heap's, whoever pops. stopFlag is re-read before every pop, so a
// process running on through its own wakeups still sees a host
// Interrupt.
func (sh *shard) next(self *Proc) *Proc {
	s := sh.sim
	for !s.stopFlag.Load() {
		if len(sh.events.ev) == 0 || sh.held {
			to, granted := s.turn()
			if granted != nil || to == nil {
				return granted
			}
			sh = to
			continue
		}
		ev := sh.events.pop()
		if !ev.live(s.procs) {
			sh.events.dead--
			s.stats.DeadPops++
			continue // superseded or stale event
		}
		if s.limit != 0 && ev.at > s.limit {
			sh.events.push(ev)
			sh.held = true
			continue
		}
		sh.now = ev.at
		p := s.procs[ev.pid]
		p.state = parkBlocked // will be updated when it parks
		s.stats.Dispatches++
		if p.handle != nil {
			s.stats.Inline++
			p.serve()
			continue
		}
		if p == self {
			s.stats.RunOns++
		} else {
			s.stats.Switches++
		}
		return p
	}
	return nil
}

// turn moves the dispatch turn off a shard that has nothing it may
// dispatch, to the shard whose next key (at, pid) is least: a held
// fence's key, else the shard's earliest live event. If that is a
// fence it is granted — the process is returned for next to resume, its
// shard released; every other shard's next event and every other fence
// lie beyond its key, which is all Fence promises. A shard held at the
// time limit has only events beyond it and is passed over; when such
// shards are all that is left the run ends with the TimeLimitError, and
// with nothing left at all it just ends (nil, nil). A single shard is
// the degenerate case: turn finds nothing, or only the limit.
func (s *Simulator) turn() (*shard, *Proc) {
	var best *shard
	var bestAt Time
	var bestPid int
	limited := false
	for _, sh := range s.shards {
		var at Time
		var pid int
		switch {
		case sh.fence != nil:
			at, pid = sh.fenceAt, sh.fence.id
		case sh.held:
			limited = true
			continue
		default:
			dead := sh.events.dead
			ev, ok := sh.events.peekLive(s.procs)
			s.stats.DeadPops += uint64(dead - sh.events.dead)
			if !ok {
				continue
			}
			at, pid = ev.at, ev.pid
		}
		if best == nil || at < bestAt || (at == bestAt && pid < bestPid) {
			best, bestAt, bestPid = sh, at, pid
		}
	}
	if best == nil {
		if limited {
			// No abort can be pending: it would have set stopFlag.
			s.abortErr = &TimeLimitError{Limit: s.limit}
			s.stopFlag.Store(true)
		}
		return nil, nil
	}
	p := best.fence
	if p != nil {
		best.fence, best.held = nil, false
	}
	return best, p
}

// yield gives up control from p's goroutine: p takes the dispatch turn
// itself. If its own wakeup is next it keeps running
// (run-on, reported true, no goroutine switch); otherwise it resumes
// the next process directly, or Run when the loop is over (one switch).
// The unbuffered sends keep the one-runnable-process invariant: all of
// p's writes happen before the receiver continues, and p touches no
// shared state again until something sends on its own resume.
func (p *Proc) yield() bool {
	switch next := p.sh.next(p); next {
	case p:
		return true
	case nil:
		p.sim.parked <- struct{}{}
	default:
		next.resume <- struct{}{}
	}
	return false
}

// run is a process goroutine: it waits for its first dispatch, executes
// the body, and gives up control for good when done (or when killed). A
// panic in the body is contained: it becomes a PanicError aborting the
// simulation, not a host-program crash — the goroutine exits cleanly
// so the kernel sees an ordinary exit.
func (p *Proc) run() {
	defer func() {
		p.contain(recover())
		// The body returned, panicked, aborted or was killed: the
		// goroutine's last act is an ordinary hand-off. In the three
		// unwinding cases stopFlag is already set, so the yield goes
		// to Run, never to a peer.
		p.state = parkDone
		p.yield()
	}()
	// Wait for first dispatch.
	<-p.resume
	if p.killed {
		panic(errKilled{})
	}
	p.body(p)
}

// contain turns a panic recovered from p's body or handler into the
// run's PanicError under p's name and pid; errKilled is an ordinary unwind.
func (p *Proc) contain(r any) {
	if _, killed := r.(errKilled); r == nil || killed {
		return
	}
	perr := &PanicError{
		Proc:  p.name,
		Pid:   p.id,
		Now:   p.sh.now,
		Value: fmt.Sprint(r),
		Stack: string(debug.Stack()),
	}
	if p.sim.abortErr == nil {
		p.sim.abortErr = perr
	}
	p.sim.stopFlag.Store(true)
}

// deadlockOrNil diagnoses global quiescence: fine if every proc is done
// (or a fail-stopped daemon), a DeadlockError otherwise — reported with
// a per-process blocked-port diagnostic, in pid order, instead of
// hanging or panicking.
func (s *Simulator) deadlockOrNil(now Time) error {
	var blocked []BlockedProc
	real := false
	for _, p := range s.procs {
		if p.state != parkBlocked {
			continue
		}
		port := ""
		if p.blockedOn != noID {
			port = s.ports[p.blockedOn].name
		}
		blocked = append(blocked, BlockedProc{Proc: p.name, Port: port, Daemon: p.daemon})
		if !p.daemon {
			real = true
		}
	}
	if real {
		return &DeadlockError{Now: now, Blocked: blocked}
	}
	return nil
}

// kill unwinds all parked goroutines; a handler has none.
func (s *Simulator) kill() {
	s.stopFlag.Store(true)
	for _, p := range s.procs {
		if p.state == parkDone || p.handle != nil {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
		<-s.parked
	}
}

// Stop ends the simulation after the calling process parks.
func (p *Proc) Stop() { p.sim.stopFlag.Store(true) }

// SetDaemon excuses the process from deadlock detection: a daemon
// blocked forever (a fail-stopped tile draining its inbox) is listed
// in the DeadlockError report but does not itself constitute deadlock.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// abort raises a fatal simulation error from inside a process body and
// unwinds the calling goroutine. Run returns the error after killing
// the remaining processes.
func (p *Proc) abort(err error) {
	if p.sim.abortErr == nil {
		p.sim.abortErr = err
	}
	p.sim.stopFlag.Store(true)
	panic(errKilled{})
}

// ID returns the process id (spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the process's current local virtual time, including
// accumulated cycles not yet synchronized with the scheduler.
func (p *Proc) Now() Time { return p.sh.now + p.local }

// Tick accrues d cycles of purely local work without yielding to the
// scheduler. The accrued time becomes visible at the next Advance, Send,
// Recv, or Sync.
func (p *Proc) Tick(d Time) { p.local += d }

// Sync yields to the scheduler until the process's accrued local time
// has elapsed in virtual time. It is a no-op if no time is accrued.
func (p *Proc) Sync() {
	p.mayPark()
	if p.local == 0 {
		return
	}
	d := p.local
	p.local = 0
	p.advance(d)
}

// Advance accrues d cycles and yields until they have elapsed.
func (p *Proc) Advance(d Time) {
	p.local += d
	p.Sync()
}

func (p *Proc) advance(d Time) {
	p.sh.schedule(p, p.sh.now+d)
	p.park()
}

// park gives up control and blocks until resumed: p dispatches the next
// event itself and may find it is its own.
func (p *Proc) park() {
	if p.yield() {
		return
	}
	<-p.resume
	if p.killed {
		panic(errKilled{})
	}
}

// Fence blocks the calling process until no other shard has a live
// event or a held fence below the caller's current dispatch key (now,
// pid). Between Fence and the process's next park, reads and writes of
// state the shards share therefore happen in the order one heap would
// have made them.
//
// Independent shards are dispatched a shard at a time, so Fence records
// the caller's key, holds the caller's shard and parks; turn grants it —
// no dispatch is counted — in key order. One process runs at a time, so
// the exclusivity until the next park is the kernel's own. Another shard
// may meanwhile have been dispatched past the key: it shares nothing
// outside its own fenced sections, so neither side can tell. What it
// does mean: a shard that never runs out of events never gives up the
// turn, so a Stop that waits under another shard's fence needs the run
// to have a time limit. No-op on one shard.
func (p *Proc) Fence() {
	p.mayPark()
	if p.sim.slotwise {
		sh := p.sh
		sh.fence, sh.fenceAt, sh.held = p, sh.now, true
		p.park()
	}
}

// mayPark guards Recv, RecvDeadline, TryRecv, Advance, Sync and Fence:
// a handler runs on a borrowed goroutine and has nothing to come back to.
func (p *Proc) mayPark() {
	if p.handle != nil {
		panic("sim: handler " + p.name + " called an operation that parks (Recv, RecvDeadline, TryRecv, Advance, Sync, Fence)")
	}
}
