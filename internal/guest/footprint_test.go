package guest_test

import (
	"flag"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// TestLoadFootprint: a loaded address space costs what it maps. For
// every profile, what guest.Load allocates is at most its mapped pages
// plus 32 KB for the page table, the registers and the kernel; a table
// sized for the whole 4 GB space (768 KB for 65,536 pages) fails it.
func TestLoadFootprint(t *testing.T) {
	// A load allocates the same bytes every time, so a hundred of them
	// measure it; the default one-second benchtime would spend two
	// seconds of loads and collections on each profile.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("100x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(old)
	for _, p := range workload.Profiles() {
		img := p.Build()
		pages := len(guest.Load(img).Mem.Capture(nil).Pages)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				guest.Load(img)
			}
		})
		limit := int64(pages)*guest.PageBytes + 32<<10
		if got := r.AllocedBytesPerOp(); got > limit {
			t.Errorf("%s: Load allocates %d bytes for %d mapped pages, want at most %d", p.Name, got, pages, limit)
		} else {
			t.Logf("%s: %d pages, %d bytes", p.Name, pages, got)
		}
	}
}
