package translate

import (
	"flag"
	"testing"
	"unsafe"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// allocsOnce returns what one call of f allocates, bytes and
// allocations, as testing.Benchmark measures it. A first call, not
// measured, grows whatever scratch f keeps.
func allocsOnce(t *testing.T, f func()) (bytes, allocs uint64) {
	t.Helper()
	f()
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(old)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return r.MemBytes / uint64(r.N), r.MemAllocs / uint64(r.N)
}

// TestTranslationFootprint: a translation costs one flat 48-byte header
// and its code in the tile's 4-byte words. Over the 176.gcc corpus,
// TranslateFinal makes at most two allocations a block (the Result and
// its Code) and allocates at most the header plus 4 bytes per word plus
// 64 (the allocator's size classes). Code kept as 8-byte instructions
// fails it (about 300 bytes a block), and so does a Result that carries
// its code twice or a header built from several structs (about 800
// bytes and four allocations a block).
func TestTranslationFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p, _ := workload.ByName("176.gcc")
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := New(Options{Optimize: true})
	var addrs []uint32
	words := 0
	for _, r := range tr.Reachable(mem, img.Entry) {
		addrs = append(addrs, r.GuestAddr)
		words += len(r.Code)
	}
	bytes, allocs := allocsOnce(t, func() {
		for _, a := range addrs {
			tr.TranslateFinal(mem, a)
		}
	})
	n := float64(len(addrs))
	perBlock, allocsPerBlock := float64(bytes)/n, float64(allocs)/n
	if h := unsafe.Sizeof(Result{}); h != 48 {
		t.Errorf("the Result header is %d bytes, want 48", h)
	}
	limit := 48 + 4*float64(words)/n + 64
	// The count is the process's: a goroutine of the test framework or
	// the runtime may allocate once or twice during the pass.
	const stray = 8
	if allocs > 2*uint64(len(addrs))+stray {
		t.Errorf("%d allocations for %d blocks (%.3f a block), want at most 2 a block", allocs, len(addrs), allocsPerBlock)
	}
	if perBlock > limit {
		t.Errorf("%.1f bytes a block, want at most %.1f (a 48-byte header and %.1f words of 4 bytes, plus 64)",
			perBlock, limit, float64(words)/n)
	}
	t.Logf("%d blocks: %.1f bytes, %.3f allocations a block (limit %.1f bytes)", len(addrs), perBlock, allocsPerBlock, limit)
}

// TestMemoBytesMatchTranslations: Stats().Bytes counts what the entries
// keep alive, so after the gzip corpus it is within 10% of the bytes
// TranslateFinal allocates for the same blocks. A count that still
// included a second form of the code, or left the code out, is not.
func TestMemoBytesMatchTranslations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	img, addrs := memoCorpus(t)
	mem := guest.Load(img).Mem
	tr := New(Options{Optimize: true})
	memo := NewMemo()
	for _, a := range addrs {
		if _, err := memo.Translate(tr, img, mem, a); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := allocsOnce(t, func() {
		for _, a := range addrs {
			tr.TranslateFinal(mem, a)
		}
	})
	got := memo.Stats().Bytes
	if d := float64(got) - float64(want); d > 0.1*float64(want) || d < -0.1*float64(want) {
		t.Errorf("memo counts %d bytes for %d blocks; TranslateFinal allocated %d", got, len(addrs), want)
	} else {
		t.Logf("memo counts %d bytes for %d blocks; TranslateFinal allocated %d", got, len(addrs), want)
	}
}
