package sim

import (
	"reflect"
	"testing"
)

// The references the kernel's queues are checked against: the event
// heap and message heap as they were when each entry carried its
// process or payload by pointer. refEvent is ordered by a shard-wide
// enqueue counter, where event is ordered by the process's own wakeSeq.

type refEvent struct {
	at   Time
	pid  int
	seq  uint64
	proc *Proc
	wake uint64
}

type refEventHeap struct {
	ev   []refEvent
	dead int
}

func (h *refEventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	return a.seq < b.seq
}

func (h *refEventHeap) push(e refEvent) {
	h.ev = append(h.ev, e)
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

func (h *refEventHeap) siftDown(i int) {
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

func (h *refEventHeap) pop() refEvent {
	e := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = refEvent{}
	h.ev = h.ev[:n]
	h.siftDown(0)
	return e
}

func (h *refEventHeap) peekLive() (refEvent, bool) {
	for len(h.ev) > 0 {
		if h.ev[0].live() {
			return h.ev[0], true
		}
		h.pop()
		h.dead--
	}
	return refEvent{}, false
}

func (e *refEvent) live() bool {
	return e.proc.state == parkRunnable && e.wake == e.proc.wakeSeq
}

func (h *refEventHeap) compact() {
	kept := h.ev[:0]
	for i := range h.ev {
		if h.ev[i].live() {
			kept = append(kept, h.ev[i])
		}
	}
	for i := len(kept); i < len(h.ev); i++ {
		h.ev[i] = refEvent{}
	}
	h.ev = kept
	h.dead = 0
	for i := len(h.ev)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// refShard is the reference's shard.schedule.
type refShard struct {
	events refEventHeap
	seq    uint64
}

func (sh *refShard) schedule(p *Proc, at Time) {
	if p.state == parkRunnable {
		sh.events.dead++
	}
	sh.seq++
	p.wakeSeq++
	p.wakeAt = at
	sh.events.push(refEvent{at: at, pid: p.id, seq: sh.seq, proc: p, wake: p.wakeSeq})
	p.state = parkRunnable
	if n := len(sh.events.ev); n >= compactMinLen && sh.events.dead > n/2 {
		sh.events.compact()
	}
}

type refMsg struct {
	Payload any
	Arrival Time
	From    int
	seq     uint64
}

type refMsgHeap []refMsg

func (h refMsgHeap) less(i, j int) bool {
	if h[i].Arrival != h[j].Arrival {
		return h[i].Arrival < h[j].Arrival
	}
	return h[i].seq < h[j].seq
}

func (h *refMsgHeap) push(m refMsg) {
	*h = append(*h, m)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *refMsgHeap) pop() refMsg {
	q := *h
	m := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = refMsg{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return m
}

// FuzzKernelQueues drives a shard's event heap and a port's message
// queue through random sequences beside the references above and
// requires the same result at every step. Events: schedules (a second
// schedule of a runnable process supersedes its first, stranding a
// dead entry), pops as the dispatch loop makes them (dead entries
// discarded and counted, the live one's process retired), the peek
// the dispatch turn makes, and forced compactions; times come from a
// narrow window, so (at, pid) ties are common. Messages: sends at
// arrivals from a narrow window and pops, whose payload, arrival and
// sender must come out in the reference's order.
func FuzzKernelQueues(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 1, 3, 4, 0, 5, 2, 0, 1})
	f.Add([]byte("\x10\x00\x01\x00\x01\x00\x01\x04\x00\x05\x00\x06\x00\x02\x00\x03\x00"))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(func() []byte {
		// Many supersedes of few processes: compaction at 64 entries.
		b := []byte{2}
		for i := range 200 {
			b = append(b, 0, byte(i*7))
		}
		return append(b, 1, 0, 1, 0, 1, 0)
	}())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 1 + int(ops[0])%24
		sa, sb := New(), New()
		for range n {
			sa.Spawn("p", func(*Proc) {})
			sb.Spawn("p", func(*Proc) {})
		}
		sh, ref := sa.shards[0], &refShard{}
		pt, rq := sa.NewPort("pt"), refMsgHeap{}
		var deadPops, refDeadPops int
		var sent int
		for i := 1; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			pid := int(arg) % n
			switch ops[i] % 6 {
			case 0: // schedule, superseding if the process is runnable
				at := Time(1000 + int(arg)%13)
				sh.schedule(sa.procs[pid], at)
				ref.schedule(sb.procs[pid], at)
			case 1: // pop the next live event, as next does
				var got, want refEvent
				for len(sh.events.ev) > 0 {
					ev := sh.events.pop()
					if !ev.live(sa.procs) {
						sh.events.dead--
						deadPops++
						continue
					}
					sa.procs[ev.pid].state = parkBlocked
					got = refEvent{at: ev.at, pid: ev.pid}
					break
				}
				for len(ref.events.ev) > 0 {
					ev := ref.events.pop()
					if !ev.live() {
						ref.events.dead--
						refDeadPops++
						continue
					}
					ev.proc.state = parkBlocked
					want = refEvent{at: ev.at, pid: ev.pid}
					break
				}
				if got != want || deadPops != refDeadPops {
					t.Fatalf("step %d: popped (at %d, pid %d) after %d dead pops, want (at %d, pid %d) after %d",
						i/2, got.at, got.pid, deadPops, want.at, want.pid, refDeadPops)
				}
			case 2: // peek, as turn does
				ev, ok := sh.events.peekLive(sa.procs)
				rev, rok := ref.events.peekLive()
				if ok != rok || ev.at != rev.at || ev.pid != rev.pid {
					t.Fatalf("step %d: peeked (at %d, pid %d, %v), want (at %d, pid %d, %v)",
						i/2, ev.at, ev.pid, ok, rev.at, rev.pid, rok)
				}
			case 3:
				sh.events.compact(sa.procs)
				ref.events.compact()
			case 4: // send
				sent++
				at := Time(50 + int(arg)%7)
				pt.Send(pid, sent, at)
				rq.push(refMsg{Payload: sent, Arrival: at, From: pid, seq: uint64(sent)})
			case 5: // receive
				if len(rq) == 0 {
					continue
				}
				got, want := pt.q.pop(), rq.pop()
				if got != (Msg{Payload: want.Payload, Arrival: want.Arrival, From: want.From}) {
					t.Fatalf("step %d: received %+v, want %+v", i/2, got, want)
				}
			}
			if len(sh.events.ev) != len(ref.events.ev) || sh.events.dead != ref.events.dead {
				t.Fatalf("step %d: heap holds %d entries (%d dead), want %d (%d dead)",
					i/2, len(sh.events.ev), sh.events.dead, len(ref.events.ev), ref.events.dead)
			}
			if pt.Len() != len(rq) {
				t.Fatalf("step %d: port holds %d messages, want %d", i/2, pt.Len(), len(rq))
			}
		}
	})
}

// TestKernelQueuesHoldNoPointers walks the types the kernel's heaps
// sift — the event and the message key — and fails on any field the
// garbage collector would have to scan. Such a field makes every sift
// swap run write barriers while the collector is marking.
func TestKernelQueuesHoldNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: the garbage collector scans it", path, ty.Kind())
		}
	}
	walk("event", reflect.TypeFor[event]())
	walk("msgKey", reflect.TypeFor[msgKey]())
}
