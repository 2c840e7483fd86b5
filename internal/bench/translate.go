package bench

import (
	"errors"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// TranslateCorpusWorkload is the guest whose statically reachable
// blocks the translate micro-benchmarks iterate: the largest code
// working set of the suite, so the block mix is the one the
// code-bound guests pay for.
const TranslateCorpusWorkload = "176.gcc"

// TranslateBlockBench returns a benchmark that translates one block of
// the TranslateCorpusWorkload corpus per iteration, cycling through it
// in walk order, so ns/op and allocs/op read as per-block figures.
// With tier0 it measures the template path alone over the blocks that
// have templates; otherwise the optimizing pipeline over all of them.
func TranslateBlockBench(tier0 bool) func(b *testing.B) {
	p, _ := workload.ByName(TranslateCorpusWorkload)
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := translate.New(translate.Options{Optimize: true})
	step := tr.TranslateFinal
	if tier0 {
		step = tr.TranslateTemplate
	}
	var addrs []uint32
	for _, r := range tr.Reachable(mem, img.Entry) {
		if _, err := step(mem, r.GuestAddr); errors.Is(err, translate.ErrUntemplated) {
			continue
		}
		addrs = append(addrs, r.GuestAddr)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := step(mem, addrs[i%len(addrs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
