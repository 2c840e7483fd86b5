package core

import (
	"testing"

	"tilevm/internal/fault"
)

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

// TestMsgPoolReuseAfterRecycle: a payload recycled through the fault
// path (engine.recycleFaulty) is genuinely reusable, and non-pooled
// payloads are ignored rather than corrupting the free lists.
func TestMsgPoolReuseAfterRecycle(t *testing.T) {
	e := &engine{}
	req := e.pool.reqs.get()
	e.recycleFaulty(req)
	if e.pool.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", e.pool.Recycled)
	}
	if got := e.pool.reqs.get(); got != req {
		t.Error("recycled memReq was not reused")
	}
	e.recycleFaulty("not a pooled message")
	e.recycleFaulty(nil)
	if e.pool.Recycled != 1 {
		t.Fatalf("non-pooled payloads bumped Recycled to %d", e.pool.Recycled)
	}
}

// TestCorruptedMsgsRecycled is the regression test for the message-pool
// hazard: under a corruption-heavy fault plan the engine must reclaim
// corrupted memory-path payloads at their consumption points (not at
// the send site, where a queued raw.Corrupted envelope still aliases
// them) — and the run must still produce the architecturally correct
// result.
func TestCorruptedMsgsRecycled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 4_000_000_000
	cfg.Fault = &fault.Plan{
		Seed:        11,
		DropProb:    0.01,
		CorruptProb: 0.05,
	}
	res := checkAgainstReference(t, sumLoop(2000), cfg)
	if res.M.MsgsCorrupted == 0 {
		t.Fatal("corruption-heavy plan corrupted nothing; the test lost its teeth")
	}
	if res.M.FaultMsgsRecycled == 0 {
		t.Error("no corrupted/dropped payloads were recycled back to the message pool")
	}
}
