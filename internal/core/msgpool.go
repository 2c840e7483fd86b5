package core

import "fmt"

// msgPool recycles the high-rate messages so neither a guest cache miss
// nor a code fetch allocates its payloads: the memory path (memReq,
// memFwd, memResp) and the code path (codeReq, codeResp, fill, work,
// transDone). The messages are sent as pointers; the consuming kernel
// returns each one after its type switch, and a kernel that passes a
// request on (an L1.5 bank forwarding a miss to the manager) passes the
// pointer and with it the duty to free it. No locking is needed: the
// simulator runs exactly one tile kernel at a time, and every handoff
// between kernels is a happens-before edge.
//
// Fault injection complicates ownership. A *dropped* message never
// enters a port queue, so the sender holds the only reference and the
// payload recycles immediately at the send site (via raw.Machine.OnDrop
// -> engine.recycleFaulty). A *corrupted* message stays aliased by its
// raw.Corrupted wrapper until the receiver consumes the wrapper — it
// must NOT return to the free list before then, or the pool would hand
// out a payload that a queued Corrupted envelope still points at and a
// later retry would race its own ghost. Each consuming kernel therefore
// recycles corrupted payloads at its single consumption point. A stale
// reply discarded by an ID or PC mismatch is freed by the discarding
// consumer, which at that point holds the only reference.
//
// sysReq/sysResp are deliberately NOT pooled: the robust syscall tile
// caches responses for at-most-once replay, so their lifetime outlives
// delivery.
//
// Every free checks a pooled bit and panics on double-free: returning
// the same message twice would let two in-flight uses alias one
// payload, which corrupts simulation results silently — a panic at the
// second free is strictly better.
type msgPool struct {
	reqs      freeList[memReq, *memReq]
	fwds      freeList[memFwd, *memFwd]
	resps     freeList[memResp, *memResp]
	codeReqs  freeList[codeReq, *codeReq]
	codeResps freeList[codeResp, *codeResp]
	fills     freeList[fill, *fill]
	works     freeList[work, *work]
	dones     freeList[transDone, *transDone]

	// Recycled counts memory-path payloads reclaimed from the fault path
	// (drops and consumed corruptions) — the messages that previous
	// versions of this pool silently leaked to the garbage collector.
	// Code-path payloads recycle the same way but are not counted, so
	// the metric it feeds (FaultMsgsRecycled) means what it always has.
	Recycled uint64
}

// pooled is embedded in every recycled message: the double-free guard,
// owned by its freeList.
type pooled struct{ free bool }

func (p *pooled) guard() *pooled { return p }

// poolable is a pointer to a message type that embeds pooled.
type poolable[T any] interface {
	*T
	guard() *pooled
}

// freeList is one message type's free list.
type freeList[T any, P poolable[T]] struct{ free []P }

func (l *freeList[T, P]) get() P {
	if n := len(l.free); n > 0 {
		m := l.free[n-1]
		l.free = l.free[:n-1]
		m.guard().free = false
		return m
	}
	return P(new(T))
}

func (l *freeList[T, P]) put(m P) {
	g := m.guard()
	if g.free {
		panic(fmt.Sprintf("core: double free of pooled %T", m))
	}
	g.free = true
	l.free = append(l.free, m)
}

// recycleFaulty returns a fault-path payload (dropped at the send site,
// or corrupted and now consumed by its receiver) to the free list.
// Non-pooled payloads (sysReq, control messages, ...) are ignored — the
// fault injector is payload-agnostic, so this must accept anything.
func (e *engine) recycleFaulty(payload any) {
	p := &e.pool
	switch m := payload.(type) {
	case *memReq:
		p.reqs.put(m)
	case *memFwd:
		p.fwds.put(m)
	case *memResp:
		p.resps.put(m)
	case *codeReq:
		p.codeReqs.put(m)
		return
	case *codeResp:
		p.codeResps.put(m)
		return
	case *fill:
		p.fills.put(m)
		return
	case *work:
		p.works.put(m)
		return
	case *transDone:
		p.dones.put(m)
		return
	default:
		return
	}
	p.Recycled++
}
