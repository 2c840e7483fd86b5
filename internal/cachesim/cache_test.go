package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHitAfterFill(t *testing.T) {
	c := New(1024, 2, 32)
	if r := c.Access(0x100, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x11c, false); !r.Hit {
		t.Error("same-line access missed")
	}
	if r := c.Access(0x120, false); r.Hit {
		t.Error("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 32B lines, 2 sets (128 bytes total).
	c := New(128, 2, 32)
	// Three lines mapping to set 0: addresses 0, 64, 128 (set stride 64).
	c.Access(0, false)
	c.Access(64, false)
	c.Access(0, false)   // touch 0, making 64 the LRU victim
	c.Access(128, false) // must evict 64
	if !c.Contains(0) {
		t.Error("line 0 evicted, expected LRU to keep it")
	}
	if c.Contains(64) {
		t.Error("line 64 should have been evicted")
	}
	if !c.Contains(128) {
		t.Error("line 128 not resident")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(128, 2, 32)
	c.Access(0, true) // dirty
	c.Access(64, false)
	c.Access(128, false) // evicts 0 (LRU), dirty → writeback
	found := false
	// Re-run deterministically to capture the result.
	c2 := New(128, 2, 32)
	c2.Access(0, true)
	c2.Access(64, false)
	r := c2.Access(128, false)
	if r.Writeback && r.WritebackOf == 0 {
		found = true
	}
	if !found {
		t.Errorf("expected writeback of line 0, got %+v", r)
	}
	// Clean eviction: no writeback.
	c3 := New(128, 2, 32)
	c3.Access(0, false)
	c3.Access(64, false)
	if r := c3.Access(128, false); r.Writeback {
		t.Error("clean eviction reported writeback")
	}
}

func TestFlushAll(t *testing.T) {
	c := New(1024, 2, 32)
	c.Access(0, true)
	c.Access(32, true)
	c.Access(64, false)
	if got := c.DirtyLines(); got != 2 {
		t.Errorf("DirtyLines = %d, want 2", got)
	}
	if got := c.FlushAll(); got != 2 {
		t.Errorf("FlushAll = %d, want 2", got)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines survive flush")
	}
	if got := c.FlushAll(); got != 0 {
		t.Errorf("second FlushAll = %d, want 0", got)
	}
}

func TestStats(t *testing.T) {
	c := New(1024, 4, 32)
	for i := 0; i < 10; i++ {
		c.Access(uint32(i*32), false)
	}
	for i := 0; i < 10; i++ {
		c.Access(uint32(i*32), false)
	}
	if c.Accesses != 20 || c.Misses != 10 {
		t.Errorf("stats = %d/%d, want 20/10", c.Accesses, c.Misses)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Accesses != 0 || c.MissRate() != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to the cache size must stop missing after the
	// first pass (fully-associative behaviour is not required, but a
	// power-of-two sweep maps uniformly).
	c := New(4096, 4, 32)
	for pass := 0; pass < 3; pass++ {
		for a := uint32(0); a < 4096; a += 32 {
			c.Access(a, false)
		}
	}
	if c.Misses != 4096/32 {
		t.Errorf("misses = %d, want %d (cold only)", c.Misses, 4096/32)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Working set 2× capacity with LRU and a sequential sweep misses
	// every access after warmup.
	c := New(1024, 2, 32)
	var missesLastPass uint64
	for pass := 0; pass < 4; pass++ {
		before := c.Misses
		for a := uint32(0); a < 2048; a += 32 {
			c.Access(a, false)
		}
		missesLastPass = c.Misses - before
	}
	if missesLastPass != 2048/32 {
		t.Errorf("last-pass misses = %d, want all %d", missesLastPass, 2048/32)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(128, 2, 32)
	c.Access(0, false)
	c.Access(64, false)
	for i := 0; i < 10; i++ {
		c.Contains(64) // must not refresh LRU
	}
	c.Access(0, false)
	c.Access(128, false) // LRU victim must still be 64
	if c.Contains(64) {
		t.Error("Contains refreshed LRU state")
	}
}

func TestPropertyContainsAfterAccess(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(2048, 2, 64)
		for i := 0; i < 200; i++ {
			a := uint32(r.Intn(1 << 16))
			c.Access(a, r.Intn(2) == 0)
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDirtyCountMatchesWritebacks(t *testing.T) {
	// Invariant: dirty lines created == writebacks observed + dirty
	// lines still resident. Every write dirties exactly one line; a line
	// stays dirty until written back (eviction) or flushed.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(512, 2, 32)
		writebacks := 0
		dirtied := map[uint32]bool{}
		for i := 0; i < 500; i++ {
			a := uint32(r.Intn(1 << 13))
			res := c.Access(a, r.Intn(3) == 0)
			if r.Intn(3) == 0 {
				dirtied[res.LineAddr] = true
			}
			if res.Writeback {
				writebacks++
			}
		}
		return writebacks+c.DirtyLines() <= 500 // sanity: bounded by writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{{0, 1, 32}, {1024, 3, 32}, {100, 2, 24}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", g)
				}
			}()
			New(g[0], g[1], g[2])
		}()
	}
}

// TestCacheResetEqualsNew: after random traffic — fills, dirty lines,
// evictions, the LRU clock and every counter moved — Reset leaves a
// cache equal to a new one, so a tile that keeps its cache across
// guests starts each as if it had built it.
func TestCacheResetEqualsNew(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := New(4096, 4, 32)
	for i := 0; i < 5000; i++ {
		c.Access(uint32(r.Intn(1<<16)), r.Intn(3) == 0)
	}
	c.FlushAll()
	for i := 0; i < 500; i++ {
		c.Access(uint32(r.Intn(1<<16)), r.Intn(2) == 0)
	}
	if c.stamp == 0 || c.Evictions == 0 || c.DirtyLines() == 0 {
		t.Fatal("the traffic left nothing to reset")
	}
	c.Reset()
	if want := New(4096, 4, 32); !reflect.DeepEqual(c, want) {
		t.Fatalf("reset cache %+v, new cache %+v", *c, *want)
	}
}
