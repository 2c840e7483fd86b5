package core

import "testing"

// TestMsgPoolDoubleFreePanics pins the pool's aliasing guard: returning
// the same payload twice must panic instead of silently handing one
// message to two owners.
func TestMsgPoolDoubleFreePanics(t *testing.T) {
	p := &msgPool{}
	m := p.resps.get()
	p.resps.put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double free of a pooled memResp did not panic")
		}
	}()
	p.resps.put(m)
}

// TestMsgPoolReuseAfterRecycle: a payload returned to its free list is
// handed out again, with its double-free guard cleared so the next
// owner can free it in turn.
func TestMsgPoolReuseAfterRecycle(t *testing.T) {
	p := &msgPool{}
	req := p.reqs.get()
	p.reqs.put(req)
	if got := p.reqs.get(); got != req {
		t.Fatal("recycled memReq was not reused")
	}
	p.reqs.put(req) // must not panic: the guard was cleared by get
	if got := p.reqs.get(); got != req {
		t.Error("memReq freed by its second owner was not reused")
	}
}
