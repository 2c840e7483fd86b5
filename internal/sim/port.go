package sim

import "fmt"

// A Msg is a message delivered to a Port. Payload is the user value;
// Arrival is the virtual time at which it becomes visible to the
// receiver; From identifies the sender (for tile kernels, a tile index)
// and is available for routing replies.
type Msg struct {
	Payload any
	Arrival Time
	From    int
}

// msgKey is a queued message's place in its port's order — arrival
// time, then enqueue order (seq) — with its sender and the slot of the
// port's payload table that holds its payload. A key holds no pointer,
// for the reason an event holds none: the heap's sifts move keys as
// plain memory even while the garbage collector is marking.
type msgKey struct {
	arrival Time
	seq     uint64
	from    int
	slot    int
}

// msgHeap is a port's queue: a concrete-typed binary min-heap of keys
// ordered by (arrival, seq), and beside it a table of payload slots,
// each written once at push and emptied at pop; the empty slots are
// chained through next. Hand-rolled sift operations avoid the
// per-message interface boxing of container/heap on the network
// send/recv path.
type msgHeap struct {
	keys  []msgKey
	slots []msgSlot
	free  int // 1 + the first empty slot, 0 when none is
}

// msgSlot holds a queued message's payload, or, empty, the free chain.
type msgSlot struct {
	payload any
	next    int // while empty: the free field's value before this slot joined
}

func (h *msgHeap) less(i, j int) bool {
	a, b := &h.keys[i], &h.keys[j]
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.seq < b.seq
}

// push queues payload under k, whose slot it fills in.
func (h *msgHeap) push(k msgKey, payload any) {
	if h.free > 0 {
		k.slot = h.free - 1
		h.free = h.slots[k.slot].next
		h.slots[k.slot].payload = payload
	} else {
		k.slot = len(h.slots)
		h.slots = append(h.slots, msgSlot{payload: payload})
	}
	h.keys = append(h.keys, k)
	q := h.keys
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest message. Callers must check
// len(h.keys) > 0 first.
func (h *msgHeap) pop() Msg {
	q := h.keys
	k := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	h.keys = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	sl := &h.slots[k.slot]
	m := Msg{Payload: sl.payload, Arrival: k.arrival, From: k.from}
	*sl = msgSlot{next: h.free} // release the payload reference
	h.free = k.slot + 1
	return m
}

// A Port is an ordered message queue, the endpoint of a simulated
// network link or hardware FIFO. Messages are delivered in arrival-time
// order (FIFO among equal arrivals). At most one process may block in
// Recv on a port at a time.
//
// A port belongs to a shard (shard 0 unless SetShard moved it). With
// more than one shard, only processes of the same shard may Send to it
// or receive from it: independent shards exchange no messages, and
// Proc.SendPort is the Send that checks it.
type Port struct {
	sim  *Simulator
	sh   *shard
	name string
	id   int // index in the simulator's port table
	q    msgHeap
	seq  uint64
	// waiter is the pid of the process blocked in Recv here, or noID:
	// an id, not a pointer, so arming and disarming a receive writes no
	// pointer.
	waiter int
}

// noID is the waiter of a port nobody waits on, and the blockedOn of
// a process blocked on no port.
const noID = -1

// NewPort creates a port attached to the simulator, on shard 0.
func (s *Simulator) NewPort(name string) *Port {
	pt := &Port{sim: s, sh: s.shards[0], name: name, id: len(s.ports), waiter: noID}
	s.ports = append(s.ports, pt)
	return pt
}

// SetShard assigns the port to shard i. Must be called before Run; the
// receiving process must live on the same shard.
func (pt *Port) SetShard(i int) {
	if pt.sim.started {
		panic("sim: Port.SetShard after Run")
	}
	pt.sh = pt.sim.shard(i)
}

// Len returns the number of queued messages, including ones whose
// arrival time is still in the future.
func (pt *Port) Len() int { return len(pt.q.keys) }

// Send enqueues a message arriving at the given time, waking a blocked
// receiver if necessary. It may be called from any process of the
// port's own shard (the sender's local time is not consulted; compute
// arrival with p.Now() plus the modeled transit latency before
// calling). Send never blocks: link back-pressure is modeled by the
// receiver's service occupancy.
func (pt *Port) Send(from int, payload any, arrival Time) {
	pt.seq++
	pt.q.push(msgKey{arrival: arrival, seq: pt.seq, from: from}, payload)
	if pt.waiter == noID {
		return
	}
	w := pt.sim.procs[pt.waiter]
	// Not before now, nor before the receiver's folded local time.
	at := max(arrival, pt.sh.now, w.floor)
	switch {
	case w.state == parkBlocked:
		pt.sh.schedule(w, at)
	case w.state == parkRunnable && at < w.wakeAt:
		// The waiter is sleeping until a later message (or a Recv
		// deadline); this message lands earlier, so wake it sooner.
		pt.sh.schedule(w, at)
	}
}

// SendPort is Port.Send from a process that must be on the port's own
// shard: independent shards exchange no messages, so a send across is a
// bug in the partition and panics under the sender's name instead of
// being delivered on the wrong clock.
func (p *Proc) SendPort(pt *Port, from int, payload any, arrival Time) {
	if p.sh != pt.sh {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d on port %q: shards exchange no messages", p.sh.idx, pt.sh.idx, pt.name))
	}
	pt.Send(from, payload, arrival)
}

// checkShard guards the receive path when shards are apart: blocking on
// a port of another shard would wait on the wrong clock.
func (p *Proc) checkShard(pt *Port) {
	p.mayPark()
	if p.sh != pt.sh {
		panic("sim: " + p.name + " Recv on port " + pt.name + " of another shard")
	}
}

// fold is how Recv and RecvDeadline account for accrued local time.
// The kernel does not spend a dispatch on it: it becomes floor,
// the earliest time anything may wake the process, and the wait that
// follows is scheduled at max(floor, t) for whatever t — a queued
// message's arrival, a deadline, a later Send — would have woken it. A
// wakeup the old pre-sync at floor would have been followed by keeps
// its dispatch key (at, pid); the pre-sync's own dispatch had no side
// effect but to look at the queue, and is gone.
func (p *Proc) fold() {
	p.floor = p.sh.now + p.local
	p.local = 0
}

// ready reports whether p can take pt's earliest message now: it has
// arrived and p's folded local time has elapsed.
func (p *Proc) ready(pt *Port) bool {
	return p.sh.now >= p.floor && len(pt.q.keys) > 0 && pt.q.keys[0].arrival <= p.sh.now
}

// arm makes p pt's receiver and schedules its wakeup at the earliest
// queued arrival or, if timed, the deadline — not before floor; with
// neither p stays blocked until a Send schedules it.
func (p *Proc) arm(pt *Port, deadline Time, timed bool) {
	if pt.waiter != noID && pt.waiter != p.id {
		p.abort(&PortConflictError{Port: pt.name, First: p.sim.procs[pt.waiter].name, Second: p.name})
	}
	pt.waiter = p.id
	p.blockedOn = pt.id
	at := deadline
	if len(pt.q.keys) > 0 && (!timed || pt.q.keys[0].arrival < at) {
		at, timed = pt.q.keys[0].arrival, true
	}
	if timed {
		p.sh.schedule(p, max(at, p.floor))
	} else {
		p.state = parkBlocked
	}
}

// await parks p as pt's armed receiver until something wakes it.
func (p *Proc) await(pt *Port, deadline Time, timed bool) {
	p.arm(pt, deadline, timed)
	p.park()
	p.blockedOn = noID
	pt.waiter = noID
}

// Recv blocks the calling process until a message is available (its
// arrival time has been reached), then removes and returns it. Accrued
// local time elapses first, as part of the same wait.
func (p *Proc) Recv(pt *Port) Msg {
	p.checkShard(pt)
	p.fold()
	for {
		if p.ready(pt) {
			return pt.q.pop()
		}
		p.await(pt, 0, false)
	}
}

// TryRecv returns a message if one is available now, without blocking.
func (p *Proc) TryRecv(pt *Port) (Msg, bool) {
	p.checkShard(pt)
	p.Sync()
	if p.ready(pt) {
		return pt.q.pop(), true
	}
	return Msg{}, false
}

// RecvDeadline blocks until a message is available or virtual time
// reaches the deadline, whichever comes first. The boolean is false on
// timeout. A deadline in the past polls, once accrued local time has
// elapsed.
func (p *Proc) RecvDeadline(pt *Port, deadline Time) (Msg, bool) {
	p.checkShard(pt)
	p.fold()
	for {
		if p.ready(pt) {
			return pt.q.pop(), true
		}
		if p.sh.now >= max(deadline, p.floor) {
			return Msg{}, false
		}
		p.await(pt, deadline, true)
	}
}

// Timeout is the payload of the delivery a handler gets when the
// deadline it armed (SetDeadline) passes with no message taken.
type Timeout struct{}

// SetDeadline arms a handler's next wait, as RecvDeadline(t) would: if
// no message has been taken by t, handle gets a Timeout. Any delivery
// disarms it; a standing deadline is set again from every handle.
func (p *Proc) SetDeadline(t Time) { p.deadline, p.timed = t, true }

// Redeliver, called from handle just before it returns, has m handed to
// handle again once the time the handler has accrued (Tick, at least a
// cycle) has elapsed, and nothing else before: a handler's form of an
// Advance between a receive and its body, a dispatch at (now+accrued, pid).
func (p *Proc) Redeliver(m Msg) { p.held, p.again = m, true }

// serve is one dispatch of handler p, run to completion on whichever
// goroutine popped its wakeup — RecvDeadline's loop turned inside out.
// Every ready message is taken and handled, accrued local time folded
// into floor after each; with none ready and no deadline due, p becomes
// the port's armed receiver again. The wakeups this schedules are the
// ones a goroutine running for { handle(p, p.Recv(pt)) } would have, at
// the same keys (at, pid), and handle's sends happen in the same
// dispatch, so nothing downstream can tell the two apart.
func (p *Proc) serve() {
	defer func() { p.contain(recover()) }()
	pt := p.port
	if pt.waiter == p.id {
		pt.waiter = noID // running, not waiting: a Send to pt must not reschedule p
	}
	for {
		switch {
		case p.start != nil: // first dispatch
			start := p.start
			p.start = nil
			start(p)
		case p.again:
			p.again = false
			p.handle(p, p.held)
		case p.ready(pt):
			p.timed = false
			p.handle(p, pt.q.pop())
		case p.timed && p.sh.now >= max(p.deadline, p.floor):
			p.timed = false
			p.handle(p, Msg{Payload: Timeout{}, Arrival: p.deadline})
		default:
			p.arm(pt, p.deadline, p.timed)
			return
		}
		if p.again {
			p.sh.schedule(p, p.sh.now+p.local)
			p.local = 0
			return
		}
		p.floor, p.local = p.sh.now+p.local, 0
	}
}
