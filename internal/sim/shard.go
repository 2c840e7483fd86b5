// Parallel conservative-lookahead engine.
//
// A sharded Simulator partitions its processes and ports into shards,
// each running the same dispatch loop the serial scheduler runs, on its
// own goroutine. Correctness rests on three mechanisms:
//
//   - Conservative lookahead windows. Cross-shard communication must be
//     declared with Connect(from, to, lat): every message sent from a
//     process of shard `from` to a port of shard `to` must arrive at
//     least `lat` cycles after the sender's current dispatch time. Each
//     shard publishes a lower bound on its next dispatch key and may
//     dispatch an event at time t only while t < horizon, where
//     horizon = min over other shards k of (bound_k + dist(k, self))
//     and dist is the all-pairs shortest path over declared links. The
//     triangle inequality makes relayed influence (k wakes j, j sends
//     to us) safe: k's own term already covers it.
//
//   - Deterministic cross-shard delivery. Port.Send from another shard
//     is deferred: the send is recorded with the sender's dispatch key
//     (time, pid, per-proc seq) and applied by the receiving shard, in
//     sender-key order, once the message's arrival time drops below the
//     shard's horizon. A message is applied before any local event at
//     or after its arrival time can be dispatched (see applyBelow), so
//     receivers observe exactly the serial heap contents.
//
//   - Fences. Proc.Fence() blocks the calling process until every other
//     shard's next dispatch key is provably later than the caller's
//     current key, and holds that exclusivity until the process next
//     parks. Code between Fence and the next park therefore runs in
//     global serial key order — the fleet scheduler uses this for its
//     shared admission state. A serial run over independent shards
//     gives Fence the same meaning with a park and a grant (sim.go); on
//     a single shard it is a no-op.
//
// Error paths: a time-limit stop selects the globally minimal
// offending event (identical to serial). Aborts (watchdogs, port
// conflicts) stop the run as fast as possible and report the
// minimum-key abort actually recorded; if several shards were about to
// abort within one lookahead window of each other, the reported error
// may differ from serial's. Fault-free runs are bit-identical.
package sim

import (
	"fmt"
	"sync"
)

// infTime is an unreachable virtual time (no event ever carries it).
const infTime = ^Time(0)

// maxPid is a pid sentinel greater than any real pid, used in bound
// keys that mean "nothing scheduled".
const maxPid = int(^uint(0) >> 1)

// satAdd adds two times, saturating at infTime.
func satAdd(a, b Time) Time {
	if a == infTime || b == infTime || a+b < a {
		return infTime
	}
	return a + b
}

// link is a declared cross-shard communication edge.
type link struct {
	from, to int
	lat      Time
}

// SetWorkers declares the intended worker (shard-loop) count. It does
// not itself shard anything: the simulation runs the parallel engine
// only if processes are actually assigned to more than one shard (see
// Proc.SetShard). SetWorkers(1) — the default — always runs the serial
// loop, which keeps the shard assignment when the shards are independent
// (no Connect link) and dispatches them one at a time, and otherwise
// rides shard 0.
func (s *Simulator) SetWorkers(n int) {
	if s.started {
		panic("sim: SetWorkers after Run")
	}
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Connect declares that processes of shard `from` may send to ports of
// shard `to` with a minimum lookahead of lat cycles: every such send
// must satisfy arrival >= sender dispatch time + lat. Undeclared pairs
// must not communicate at all (SendPort panics). lat must be >= 1;
// zero-latency cross-shard links would collapse the lookahead window
// and with it the parallelism.
func (s *Simulator) Connect(from, to int, lat Time) {
	if s.started {
		panic("sim: Connect after Run")
	}
	if lat < 1 {
		panic("sim: Connect lookahead must be >= 1 cycle")
	}
	if from == to {
		return
	}
	s.shard(from)
	s.shard(to)
	s.links = append(s.links, link{from: from, to: to, lat: lat})
}

// SetShard assigns the process to shard i. Must be called before Run.
func (p *Proc) SetShard(i int) {
	if p.sim.started {
		panic("sim: SetShard after Run")
	}
	p.sh = p.sim.shard(i)
}

// sharded reports whether Run should use the parallel engine: a worker
// count above one and at least one process assigned off shard 0.
func (s *Simulator) sharded() bool {
	if s.workers <= 1 {
		return false
	}
	for _, p := range s.procs {
		if p.sh.idx != 0 {
			return true
		}
	}
	return false
}

// xsend is a deferred cross-shard Port.Send: the arguments plus the
// sender's dispatch key (at, pid, seq), which orders application on the
// receiving shard exactly as the serial loop would have executed the
// sends.
type xsend struct {
	pt      *Port
	from    int
	payload any
	arrival Time
	at      Time   // sender's dispatch time when the send executed
	pid     int    // sender's pid
	seq     uint64 // sender's per-proc send counter
}

func xsendLess(a, b *xsend) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	return a.seq < b.seq
}

// parState is the shared coordination state of a sharded run. One
// mutex guards every field here plus the per-shard parallel fields
// (bounds, pending, buf, flags); shards hold it while deciding what to
// do and release it across each dispatch handshake.
type parState struct {
	s    *Simulator
	mu   sync.Mutex
	cond *sync.Cond
	dist [][]Time // dist[a][b]: min summed lookahead a -> b, infTime if disconnected

	fenceBy *Proc // current fence holder, nil if none
	done    bool  // all shards quiet or limit-stalled; loops must exit

	haveAbort bool
	abortAt   Time
	abortPid  int
	abortErr  error
}

func newParState(s *Simulator) *parState {
	ps := &parState{s: s}
	ps.cond = sync.NewCond(&ps.mu)
	n := len(s.shards)
	ps.dist = make([][]Time, n)
	for i := range ps.dist {
		ps.dist[i] = make([]Time, n)
		for j := range ps.dist[i] {
			if i != j {
				ps.dist[i][j] = infTime
			}
		}
	}
	for _, l := range s.links {
		if l.lat < ps.dist[l.from][l.to] {
			ps.dist[l.from][l.to] = l.lat
		}
	}
	// Floyd–Warshall: shards influence each other transitively, so the
	// horizon term for shard k must use the cheapest path, not just the
	// direct edge.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := satAdd(ps.dist[i][k], ps.dist[k][j]); d < ps.dist[i][j] {
					ps.dist[i][j] = d
				}
			}
		}
	}
	return ps
}

// wakeAll wakes every shard loop and fence waiter (used by Stop, which
// may be called from any process).
func (ps *parState) wakeAll() {
	ps.mu.Lock()
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// recordAbort notes a fatal error raised at dispatch key (at, pid),
// keeping the minimum-key abort (the one the serial loop would have
// reached first), and stops the run.
func (ps *parState) recordAbort(at Time, pid int, err error) {
	ps.mu.Lock()
	ps.recordAbortLocked(at, pid, err)
	ps.mu.Unlock()
}

func (ps *parState) recordAbortLocked(at Time, pid int, err error) {
	if !ps.haveAbort || at < ps.abortAt || (at == ps.abortAt && pid < ps.abortPid) {
		ps.haveAbort = true
		ps.abortAt, ps.abortPid, ps.abortErr = at, pid, err
	}
	ps.cond.Broadcast()
}

// horizonFor computes how far sh may advance: the minimum over other
// shards of their published bound plus the shortest declared lookahead
// path to sh. Events strictly below the horizon are safe to dispatch.
func (ps *parState) horizonFor(sh *shard) Time {
	h := infTime
	for _, k := range ps.s.shards {
		if k == sh {
			continue
		}
		if c := satAdd(k.boundAt, ps.dist[k.idx][sh.idx]); c < h {
			h = c
		}
	}
	return h
}

// grantable reports whether a fence with key (at, pid) requested by a
// process of shard self can be granted: every other shard's next
// dispatch key must be provably greater. A shard mid-dispatch at the
// same time cannot be trusted (its running process may still wake a
// smaller pid at that time) unless that process is itself parked in a
// fence wait, in which case its bound is exact.
func (ps *parState) grantable(self *shard, at Time, pid int) bool {
	for _, k := range ps.s.shards {
		if k == self {
			continue
		}
		if k.boundAt < at || (k.boundAt == at && k.boundPid <= pid) {
			return false
		}
		if k.midDispatch && !k.fenceWaiting && k.boundAt == at {
			return false
		}
	}
	return true
}

// noteSchedule is the running-process hook: a local schedule at a key
// below the shard's published mid-dispatch bound must lower the bound
// before any fence could be wrongly granted against the stale value.
func (ps *parState) noteSchedule(sh *shard, at Time, pid int) {
	ps.mu.Lock()
	if at < sh.boundAt || (at == sh.boundAt && pid < sh.boundPid) {
		sh.boundAt, sh.boundPid = at, pid
		ps.cond.Broadcast()
	}
	ps.mu.Unlock()
}

// panicNoLink reports a send from a process of shard src to a port of a
// shard no declared Connect path leads to.
func panicNoLink(src *shard, pt *Port) {
	panic(fmt.Sprintf("sim: cross-shard send %d->%d on port %q without a declared Connect link", src.idx, pt.sh.idx, pt.name))
}

// sendRemote defers a cross-shard Port.Send: validated against the
// declared lookahead, stamped with the sender's dispatch key, and
// queued on the destination shard. The destination's published bound
// is lowered to the arrival time so fences and horizons immediately
// account for the pending wakeup.
func (ps *parState) sendRemote(p *Proc, pt *Port, from int, payload any, arrival Time) {
	src, dst := p.sh, pt.sh
	ps.mu.Lock()
	d := ps.dist[src.idx][dst.idx]
	if d == infTime {
		ps.mu.Unlock()
		panicNoLink(src, pt)
	}
	if arrival < satAdd(src.now, d) {
		ps.mu.Unlock()
		panic(fmt.Sprintf("sim: cross-shard send on port %q violates lookahead: arrival %d < now %d + lat %d", pt.name, arrival, src.now, d))
	}
	p.xseq++
	dst.pending = append(dst.pending, xsend{
		pt: pt, from: from, payload: payload, arrival: arrival,
		at: src.now, pid: p.id, seq: p.xseq,
	})
	if arrival < dst.boundAt {
		dst.boundAt, dst.boundPid = arrival, -1
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// Fence blocks the calling process until every other shard has
// provably advanced past the caller's current dispatch key, then holds
// global exclusivity until the process next parks. Between Fence and
// that park, the process is the globally earliest runnable work, so
// reads and writes of cross-shard shared state observe and produce
// exactly the serial order.
//
// A serial run over independent shards dispatches a shard at a time, so
// there Fence records the caller's dispatch key (now, pid), holds the
// caller's shard and parks; turn grants it — no dispatch is counted —
// once no other shard has a live event or a held fence below that key.
// One process runs at a time, so the exclusivity until the next park is
// the kernel's own. Another shard may meanwhile have been dispatched
// past the key: it shares nothing outside its own fenced sections, so
// neither side can tell. What it does mean: a shard that never runs out
// of events never gives up the turn, so a Stop that waits under another
// shard's fence needs the run to have a time limit. No-op in a serial
// run on one shard.
func (p *Proc) Fence() {
	p.mayPark()
	ps := p.sim.par
	if ps == nil {
		if p.sim.slotwise {
			sh := p.sh
			sh.fence, sh.fenceAt, sh.held = p, sh.now, true
			p.park()
		}
		return
	}
	sh := p.sh
	at, pid := sh.now, p.id
	ps.mu.Lock()
	sh.fenceWaiting = true
	ps.cond.Broadcast() // a waiter's bound is exact: an earlier same-cycle waiter may now be grantable
	for {
		if p.sim.stopFlag.Load() {
			sh.fenceWaiting = false
			ps.mu.Unlock()
			panic(errKilled{})
		}
		if ps.fenceBy == nil && ps.grantable(sh, at, pid) {
			break
		}
		ps.cond.Wait()
	}
	sh.fenceWaiting = false
	ps.fenceBy = p
	ps.mu.Unlock()
}

// setBound publishes the shard's next-dispatch lower bound, waking the
// other shards when it moves: a bound change shifts their horizons
// (and possibly a fence grant), and a sleeping shard has no other way
// to notice. Callers hold ps.mu.
func (sh *shard) setBound(at Time, pid int) {
	if at != sh.boundAt || pid != sh.boundPid {
		sh.boundAt, sh.boundPid = at, pid
		sh.sim.par.cond.Broadcast()
	}
}

// absorb moves freshly queued cross-shard sends into the shard-owned
// staging buffer, recycling the pending backing array (the xsend pool:
// steady-state cross-shard traffic allocates no queue nodes).
func (sh *shard) absorb() {
	if len(sh.pending) == 0 {
		return
	}
	sh.buf = append(sh.buf, sh.pending...)
	for i := range sh.pending {
		sh.pending[i] = xsend{} // drop payload references
	}
	sh.pending = sh.pending[:0]
}

// applyBelow executes every staged cross-shard send whose arrival lies
// strictly below the horizon, in sender dispatch-key order. Safety: a
// message still unsent by its origin shard k satisfies
// arrival >= bound_k + dist(k, self) >= horizon, so the set applied
// here is exactly the set that can affect dispatches below the
// horizon; and ordering among equal arrivals on one port follows
// sender keys, matching the serial loop's insertion order. Messages at
// or above the horizon stay staged — their arrivals differ from every
// applied message's (they are >= horizon), so deferring them cannot
// perturb port insertion order.
func (sh *shard) applyBelow(h Time) {
	if len(sh.buf) == 0 {
		return
	}
	var batch []xsend
	kept := sh.buf[:0]
	for i := range sh.buf {
		if sh.buf[i].arrival < h {
			batch = append(batch, sh.buf[i])
		} else {
			kept = append(kept, sh.buf[i])
		}
	}
	if len(batch) == 0 {
		return
	}
	for i := len(kept); i < len(sh.buf); i++ {
		sh.buf[i] = xsend{}
	}
	sh.buf = kept
	// Insertion sort: batches are tiny and usually already ordered.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && xsendLess(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for i := range batch {
		x := &batch[i]
		x.pt.Send(x.from, x.payload, x.arrival)
		*x = xsend{}
	}
}

// minStagedArrival returns the earliest arrival among staged messages,
// or infTime if none.
func (sh *shard) minStagedArrival() Time {
	m := infTime
	for i := range sh.buf {
		if sh.buf[i].arrival < m {
			m = sh.buf[i].arrival
		}
	}
	for i := range sh.pending {
		if sh.pending[i].arrival < m {
			m = sh.pending[i].arrival
		}
	}
	return m
}

// loopPar is one shard's event loop: the serial algorithm plus horizon
// waits, staged-message application, and bound publication.
func (sh *shard) loopPar(ps *parState) {
	s := sh.sim
	ps.mu.Lock()
	for {
		if s.stopFlag.Load() || ps.done {
			break
		}
		sh.limitStalled = false
		sh.absorb()
		h := ps.horizonFor(sh)
		sh.applyBelow(h)
		ev, ok := sh.events.peekLive()
		if !ok {
			if m := sh.minStagedArrival(); m != infTime {
				// No local events, but staged messages will create
				// some; the bound is their earliest arrival.
				sh.setBound(m, -1)
				ps.cond.Wait()
				continue
			}
			sh.quiet = true
			sh.setBound(infTime, maxPid)
			if ps.checkDoneLocked() {
				break
			}
			ps.cond.Wait()
			sh.quiet = false
			continue
		}
		if s.limit != 0 && ev.at > s.limit {
			// Serial dispatches every event with at <= limit before the
			// heap surfaces one beyond it, so this shard stalls (rather
			// than stopping the world) until every shard is quiet or
			// likewise stalled; the minimum offending key is recorded
			// for the deterministic error.
			ps.recordAbortLocked(ev.at, ev.pid, &TimeLimitError{Limit: s.limit})
			sh.limitStalled = true
			sh.setBound(ev.at, ev.pid)
			if ps.checkDoneLocked() {
				break
			}
			ps.cond.Wait()
			continue
		}
		if ev.at >= h {
			if m := sh.minStagedArrival(); m < ev.at {
				sh.setBound(m, -1)
			} else {
				sh.setBound(ev.at, ev.pid)
			}
			ps.cond.Wait()
			continue
		}
		// Dispatch. The bound is the event's own key; the running
		// process can only create keys at or above it except for
		// same-time smaller-pid wakes, which noteSchedule publishes.
		sh.events.pop()
		sh.setBound(ev.at, ev.pid)
		sh.midDispatch = true
		sh.now = ev.at
		ev.proc.state = parkBlocked
		ps.mu.Unlock()
		if ev.proc.handle != nil {
			ev.proc.serve() // a handler runs on the loop's own goroutine
		} else {
			ev.proc.resume <- struct{}{}
			<-sh.parked
		}
		ps.mu.Lock()
		sh.midDispatch = false
		if ps.fenceBy != nil && ps.fenceBy.sh == sh {
			ps.fenceBy = nil
		}
		ps.cond.Broadcast()
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// checkDoneLocked detects global completion: every shard is quiet (no
// events, no staged messages) or stalled at the time limit, and no
// fence is held. A mid-dispatch or horizon-waiting shard keeps its
// quiet flag false, so completion cannot be declared early.
func (ps *parState) checkDoneLocked() bool {
	if ps.fenceBy != nil {
		return false
	}
	for _, k := range ps.s.shards {
		if !k.quiet && !k.limitStalled {
			return false
		}
		// The quiet flag is stale-high for a shard that was just handed
		// a cross-shard send and has not reacquired the mutex yet; the
		// pending queue is written under this mutex, so checking it
		// closes that window. (buf is drained before quiet is ever set
		// and only the shard's own loop fills it from pending.)
		if k.quiet && len(k.pending) > 0 {
			return false
		}
	}
	ps.done = true
	ps.cond.Broadcast()
	return true
}

// runSharded is the parallel counterpart of the serial loop in Run.
func (s *Simulator) runSharded() error {
	if s.Trace != nil {
		panic("sim: tracing is not supported in a sharded run")
	}
	ps := newParState(s)
	s.parMu.Lock()
	s.par = ps
	s.parMu.Unlock()
	for _, p := range s.procs {
		if p.handle == nil {
			go p.run()
		}
	}
	for _, p := range s.procs {
		p.sh.schedule(p, p.sh.now)
	}
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.loopPar(ps)
		}(sh)
	}
	wg.Wait()

	var err error
	ps.mu.Lock()
	if ps.haveAbort {
		err = ps.abortErr
	}
	ps.mu.Unlock()
	if err == nil && s.intrFlag.Load() {
		err = &InterruptedError{Now: s.Now()}
	}
	if err == nil && !s.stopFlag.Load() {
		err = s.deadlockOrNil(s.Now())
	}
	s.kill()
	s.parMu.Lock()
	s.par = nil
	s.parMu.Unlock()
	return err
}
