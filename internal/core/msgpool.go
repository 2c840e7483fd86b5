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
// between kernels is a happens-before edge. A stale reply discarded by
// an ID mismatch is freed by the discarding consumer, which at that
// point holds the only reference. sysReq/sysResp, two per syscall, are
// sent by value.
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
