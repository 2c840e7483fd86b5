package core

import (
	"testing"

	"tilevm/internal/translate"
)

// qState builds a bare managerState sufficient for queue-policy tests
// (no tile context needed: push/pop/queuedLen touch only bookkeeping).
func qState() *managerState {
	cfg := DefaultConfig()
	e := &engine{cfg: cfg, tabs: newSlotTables(&cfg.Params)}
	st := newManagerState(nil, &cfg.Params)
	st.reset(e)
	return st
}

// popPC pops the most urgent queued translation and returns its PC.
func popPC(st *managerState) (uint32, int, bool) {
	id, depth, ok := st.pop()
	if !ok {
		return 0, 0, false
	}
	return st.e.tabs.ids.PC(id), depth, true
}

// entryPC returns the pipeline state of the block at pc.
func entryPC(st *managerState, pc uint32) *qEntry { return st.entry(st.e.tabs.ids.ID(pc)) }

func TestQueuePriorityOrdering(t *testing.T) {
	st := qState()
	st.pushPC(0x300, 3)
	st.pushPC(0x100, 1)
	st.pushPC(0x200, 2)
	st.pushPC(0x000, 0) // demand
	want := []uint32{0x000, 0x100, 0x200, 0x300}
	for _, w := range want {
		pc, _, ok := popPC(st)
		if !ok || pc != w {
			t.Fatalf("pop = %#x,%v, want %#x", pc, ok, w)
		}
	}
	if _, _, ok := popPC(st); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestQueueDedupAndBoost(t *testing.T) {
	st := qState()
	st.pushPC(0xA, 5)
	st.pushPC(0xA, 7) // worse priority: ignored
	if n := st.queuedLen(); n != 1 {
		t.Fatalf("queuedLen = %d, want 1", n)
	}
	st.pushPC(0xA, 2) // better: re-files
	pc, depth, ok := popPC(st)
	if !ok || pc != 0xA || depth != 2 {
		t.Fatalf("pop = %#x depth %d, want 0xA depth 2", pc, depth)
	}
	// The stale depth-5 entry must not resurface.
	if _, _, ok := popPC(st); ok {
		t.Error("stale entry popped")
	}
}

func TestQueueSkipsDoneAndInflight(t *testing.T) {
	st := qState()
	st.pushPC(0xB, 1)
	entryPC(st, 0xB).done = true
	if _, _, ok := popPC(st); ok {
		t.Error("done entry popped")
	}
	st.reset(st.e)
	st.pushPC(0xC, 1)
	entryPC(st, 0xC).inflight = true
	if _, _, ok := popPC(st); ok {
		t.Error("inflight entry popped")
	}
	// And push refuses to re-queue them.
	st.pushPC(0xC, 0)
	if st.queuedLen() != 0 {
		t.Error("inflight entry re-queued")
	}
}

func TestQueueDepthClamping(t *testing.T) {
	st := qState()
	st.pushPC(0xD, 500)
	_, depth, ok := popPC(st)
	if !ok || depth != maxSpecDepth+1 {
		t.Errorf("depth = %d, want clamp at %d", depth, maxSpecDepth+1)
	}
}

func TestQueueFIFOSpecAblation(t *testing.T) {
	st := qState()
	st.e.cfg.FIFOSpec = true
	st.pushPC(0x1, 6)
	st.pushPC(0x2, 3)
	st.pushPC(0x3, 8)
	// All speculative work collapses to one FIFO bucket: pop order is
	// push order.
	for _, want := range []uint32{1, 2, 3} {
		pc, depth, ok := popPC(st)
		if !ok || pc != want || depth != 1 {
			t.Fatalf("pop = %#x depth %d, want %#x depth 1", pc, depth, want)
		}
	}
	// Demand still preempts.
	st.pushPC(0x4, 5)
	st.pushPC(0x5, 0)
	pc, _, _ := popPC(st)
	if pc != 0x5 {
		t.Errorf("demand did not preempt FIFO: got %#x", pc)
	}
}

// TestResultOfAnotherEpochIsDropped: a translation result sent before a
// slot's hand-off can land after it. The next guest's manager must not
// take it in: it was read from another guest's memory.
func TestResultOfAnotherEpochIsDropped(t *testing.T) {
	st := qState()
	st.e.tr = translate.New(translate.Options{})
	st.handleTransDone(&transDone{PC: 0x200, Translator: translate.New(translate.Options{})}, 6)
	if st.e.stats.Translations != 0 || st.e.tabs.ids.Len() != 0 || len(st.entries) != 0 {
		t.Errorf("a result for another epoch was taken in: %d translations, %d blocks",
			st.e.stats.Translations, st.e.tabs.ids.Len())
	}
}
