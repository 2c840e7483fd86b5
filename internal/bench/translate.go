package bench

import (
	"errors"
	"testing"

	"tilevm/internal/codecache"
	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/pentium"
	"tilevm/internal/raw"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// TranslateCorpusWorkload is the guest whose statically reachable
// blocks the translate micro-benchmarks iterate: the largest code
// working set of the suite, so the block mix is the one the
// code-bound guests pay for.
const TranslateCorpusWorkload = "176.gcc"

// translateCorpus loads the TranslateCorpusWorkload guest and translates
// its statically reachable blocks, in walk order.
func translateCorpus(tr *translate.Translator) (*guest.Memory, []*translate.Result) {
	p, _ := workload.ByName(TranslateCorpusWorkload)
	img := p.Build()
	mem := guest.Load(img).Mem
	return mem, tr.Reachable(mem, img.Entry)
}

// TranslateBlockBench returns a benchmark that translates one block of
// the TranslateCorpusWorkload corpus per iteration, cycling through it
// in walk order, so ns/op and allocs/op read as per-block figures.
// With tier0 it measures the template path alone over the blocks that
// have templates; otherwise the optimizing pipeline over all of them.
func TranslateBlockBench(tier0 bool) func(b *testing.B) {
	tr := translate.New(translate.Options{Optimize: true})
	mem, blocks := translateCorpus(tr)
	step := tr.TranslateFinal
	if tier0 {
		step = tr.TranslateTemplate
	}
	var addrs []uint32
	for _, r := range blocks {
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

// MachineRunBench returns a benchmark of one whole single-VM run per
// iteration: core.Run of the named workload under the default
// configuration. 164.gzip barely translates after warm-up, so it reads
// the sim and core message machinery; 176.gcc
// (TranslateCorpusWorkload) is its code-bound twin, where the
// translator is about half of the run.
func MachineRunBench(name string) func(b *testing.B) { return machineRunBench(name, false) }

// MachineRunWarmBench is MachineRunBench for a host that has run the
// workload before: every iteration runs against a translation memo
// (core.Config.Memo) that one untimed run filled, so it reads what a
// run costs when nothing is left to translate — the daemon's and the
// figure suite's steady state.
func MachineRunWarmBench(name string) func(b *testing.B) { return machineRunBench(name, true) }

func machineRunBench(name string, warm bool) func(b *testing.B) {
	p, ok := workload.ByName(name)
	if !ok {
		panic("bench: no workload " + name)
	}
	return func(b *testing.B) {
		img := p.Build()
		cfg := core.DefaultConfig()
		if warm {
			cfg.Memo = translate.NewMemo()
			if _, err := core.Run(img, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(img, cfg); err != nil {
				b.Fatal(err)
			}
		}
		if warm {
			if st := cfg.Memo.Stats(); st.Hits == 0 || st.Bypassed != 0 {
				b.Fatalf("warm runs of %s did not run from the memo: %+v", name, st)
			}
		}
	}
}

// PentiumBaselineBench returns a benchmark of one Pentium III baseline
// run per iteration: pentium.Run of the named workload, which executes
// it on the reference interpreter under the cache model. It reports the
// guest instructions retired per run, so ns/op over guest-insts/op is
// the interpreter's cost per instruction.
func PentiumBaselineBench(name string) func(b *testing.B) {
	p, ok := workload.ByName(name)
	if !ok {
		panic("bench: no workload " + name)
	}
	return func(b *testing.B) {
		img := p.Build()
		b.ReportAllocs()
		b.ResetTimer()
		var insts uint64
		for i := 0; i < b.N; i++ {
			r, err := pentium.Run(img, pentium.DefaultParams(), 0)
			if err != nil {
				b.Fatal(err)
			}
			insts += r.Insts
		}
		b.ReportMetric(float64(insts)/float64(b.N), "guest-insts/op")
	}
}

// L1FillBench returns a benchmark of the execution tile's code-cache
// fill: one L1.Insert per iteration, cycling through the translated
// blocks of the TranslateCorpusWorkload corpus in walk order into an L1
// of the default instruction-memory size, so the cache fills and
// flushes some twenty times per cycle and chain sites go pending, get
// patched and are dropped as they do in a code-bound guest. ns/op and
// allocs/op read per fill.
func L1FillBench() func(b *testing.B) {
	_, blocks := translateCorpus(translate.New(translate.Options{Optimize: true}))
	return func(b *testing.B) {
		l1 := codecache.NewL1(raw.DefaultParams().IMemBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := blocks[i%len(blocks)]
			l1.Insert(r.GuestAddr, r)
		}
	}
}
