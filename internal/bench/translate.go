package bench

import (
	"testing"

	"tilevm/internal/codecache"
	"tilevm/internal/codegen"
	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/ir"
	"tilevm/internal/opt"
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
func TranslateBlockBench() func(b *testing.B) {
	tr := translate.New(translate.Options{Optimize: true})
	mem, blocks := translateCorpus(tr)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tr.TranslateFinal(mem, blocks[i%len(blocks)].GuestAddr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The three stages of a translation, each on its own over the same
// corpus, so a change to one reads in its own micro and not only in
// TranslateBlockBench's sum: decoding (DecodeBlockBench), the optimizer
// (OptBlockBench) and the register allocator with the encoder
// (FinalizeBlockBench). Lowering and flag liveness are the rest.

// DecodeBlockBench returns a benchmark that decodes one block of the
// TranslateCorpusWorkload corpus per iteration with
// translate.DiscoverBlock, in walk order. Its one allocation is the
// instruction slice DiscoverBlock hands its caller.
func DecodeBlockBench() func(b *testing.B) {
	mem, blocks := translateCorpus(translate.New(translate.Options{Optimize: true}))
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := translate.DiscoverBlock(mem, blocks[i%len(blocks)].GuestAddr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// irCorpus lowers every block of the TranslateCorpusWorkload corpus to
// IR, unoptimized, in walk order.
func irCorpus() []*ir.Block {
	tr := translate.New(translate.Options{Optimize: true})
	mem, blocks := translateCorpus(tr)
	out := make([]*ir.Block, len(blocks))
	for i, r := range blocks {
		blk, err := tr.Translate(mem, r.GuestAddr)
		if err != nil {
			panic(err)
		}
		out[i] = blk.Block
	}
	return out
}

// OptBlockBench returns a benchmark that optimizes one corpus block per
// iteration, in one opt.Scratch as a translator does. The optimizer
// rewrites its block in place, so each iteration first copies the
// block's IR into a work block whose storage is reused: the copy, some
// 32 instructions of 16 bytes, is in the figure.
func OptBlockBench() func(b *testing.B) {
	blocks := irCorpus()
	return func(b *testing.B) {
		var (
			s    opt.Scratch
			work ir.Block
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := blocks[i%len(blocks)]
			work.Code = append(work.Code[:0], src.Code...)
			work.LabelPos = append(work.LabelPos[:0], src.LabelPos...)
			s.Run(&work)
		}
	}
}

// FinalizeBlockBench returns a benchmark that register-allocates and
// encodes one optimized corpus block per iteration, in one
// codegen.Scratch as a translator does. Its one allocation is the code
// slice Finalize returns.
func FinalizeBlockBench() func(b *testing.B) {
	blocks := irCorpus()
	for _, blk := range blocks {
		opt.Run(blk)
	}
	return func(b *testing.B) {
		var s codegen.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Finalize(blocks[i%len(blocks)]); err != nil {
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

// GuestLoadBench returns a benchmark of one guest.Load of the named
// workload's image per iteration: a fresh address space with the
// image's code, data and stack mapped and sealed. bytes/op is what an
// address space costs before the guest runs: its mapped 64 KB pages
// and the page table over them.
func GuestLoadBench(name string) func(b *testing.B) {
	p, ok := workload.ByName(name)
	if !ok {
		panic("bench: no workload " + name)
	}
	return func(b *testing.B) {
		img := p.Build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			guest.Load(img)
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
		ids := codecache.NewIDs()
		l1 := codecache.NewL1(raw.DefaultParams().IMemBytes, ids)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := blocks[i%len(blocks)]
			l1.Insert(ids.ID(r.GuestAddr), r)
		}
	}
}
