// Benchmarks for the tilevm reproduction. One benchmark per paper
// table/figure regenerates that experiment (over the quick 3-benchmark
// subset; run cmd/figures for the full 11-benchmark suite), plus
// microbenchmarks of the main components: the x86 decoder, the
// translation pipeline, the reference interpreter, the DES kernel, and
// a full machine run.
package tilevm_test

import (
	"testing"

	"tilevm/internal/bench"
	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/sim"
	"tilevm/internal/workload"
	"tilevm/internal/x86"
	"tilevm/internal/x86interp"
)

// --- Component microbenchmarks ---

func gzipImage() *guest.Image {
	p, _ := workload.ByName("164.gzip")
	return p.Build()
}

// BenchmarkDecodeX86 measures raw decoder throughput over the gzip
// workload's code section.
func BenchmarkDecodeX86(b *testing.B) {
	img := gzipImage()
	code := img.Code
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		pc := uint32(0)
		for int(pc) < len(code)-16 {
			in, err := x86.Decode(code[pc:], img.CodeBase+pc)
			if err != nil {
				pc++
				continue
			}
			pc += uint32(in.Len)
			insts++
		}
	}
	b.ReportMetric(float64(insts)/float64(b.N), "insts/op")
}

// BenchmarkTranslateBlock measures translation per block over the
// 176.gcc block corpus through the full pipeline (discover, flag
// liveness, lower, optimize, register-allocate).
func BenchmarkTranslateBlock(b *testing.B) { bench.TranslateBlockBench()(b) }

// BenchmarkDecodeBlock, BenchmarkOptBlock and BenchmarkFinalizeBlock
// measure three stages of that pipeline on their own over the same
// corpus: decoding, the optimizer, register allocation with encoding.
func BenchmarkDecodeBlock(b *testing.B)   { bench.DecodeBlockBench()(b) }
func BenchmarkOptBlock(b *testing.B)      { bench.OptBlockBench()(b) }
func BenchmarkFinalizeBlock(b *testing.B) { bench.FinalizeBlockBench()(b) }

// BenchmarkL1Fill measures one L1 code-cache fill (a copy of the
// block's code plus chain patching) over the same corpus.
func BenchmarkL1Fill(b *testing.B) { bench.L1FillBench()(b) }

// BenchmarkInterpreter measures the reference interpreter in guest
// instructions per second.
func BenchmarkInterpreter(b *testing.B) {
	img := gzipImage()
	b.ReportAllocs()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		proc := guest.Load(img)
		it := x86interp.New(proc)
		if _, err := it.Run(0); err != nil {
			b.Fatal(err)
		}
		steps += it.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "guest-insts/op")
}

// BenchmarkSimKernel measures discrete-event scheduling throughput.
func BenchmarkSimKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		pt := s.NewPort("ch")
		s.Spawn("producer", func(p *sim.Proc) {
			for j := 0; j < 10000; j++ {
				p.Advance(3)
				pt.Send(p.ID(), j, p.Now()+5)
			}
		})
		s.Spawn("consumer", func(p *sim.Proc) {
			for j := 0; j < 10000; j++ {
				p.Recv(pt)
				p.Tick(2)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRunGzip measures a complete machine simulation of
// the gzip workload under the default configuration.
func BenchmarkMachineRunGzip(b *testing.B) { bench.MachineRunBench("164.gzip")(b) }

// BenchmarkMachineRunGcc is the same for 176.gcc, whose run is code
// supply: about half of its host time is the translator.
func BenchmarkMachineRunGcc(b *testing.B) { bench.MachineRunBench(bench.TranslateCorpusWorkload)(b) }

// BenchmarkMachineRunMcf is the same for 181.mcf, whose execution
// tile spends most of its cycles waiting on line fills: a run of the
// message path through the event kernel.
func BenchmarkMachineRunMcf(b *testing.B) { bench.MachineRunBench("181.mcf")(b) }

// BenchmarkMachineRunGccWarm is the same run on a host that has run gcc
// before: every block comes from a filled translation memo.
func BenchmarkMachineRunGccWarm(b *testing.B) {
	bench.MachineRunWarmBench(bench.TranslateCorpusWorkload)(b)
}

// BenchmarkMachineRunGzipTraced is BenchmarkMachineRunGzip with the
// virtual-time tracer attached (full event timeline plus 10k-cycle
// interval sampling) — the delta between the two is the cost of
// *enabled* tracing. The disabled path is what BenchmarkMachineRunGzip
// itself measures: with no Tracer in the config every emission site is
// a nil check, allocation-free by internal/trace's TestNilTracerSafe,
// and must stay within noise (<2%) of the pre-tracing simulator.
func BenchmarkMachineRunGzipTraced(b *testing.B) {
	img := gzipImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Tracer = core.NewTracer(10_000)
		if _, err := core.Run(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPentiumBaseline measures the baseline model run of gzip, the
// pentium_gzip entry of BENCH_sim.json, allocations included.
func BenchmarkPentiumBaseline(b *testing.B) { bench.PentiumBaselineBench("164.gzip")(b) }

// --- Figure/table regeneration benchmarks ---
//
// Each runs its experiment over the quick subset (gzip, gcc, mcf: one
// benchmark from each slowdown band) and reports the headline numbers
// as metrics. The full-suite equivalents are `cmd/figures -fig N`.

func quickSuite() *bench.Suite {
	s := bench.NewSuite()
	s.Quick = true
	return s
}

func BenchmarkFigure4CodeCacheSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Values[1], "gcc-slowdown-noL15")
		b.ReportMetric(f.Series[2].Values[1], "gcc-slowdown-2banks")
	}
}

func BenchmarkFigure5TranslatorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Values[1], "gcc-conservative")
		b.ReportMetric(f.Series[4].Values[1], "gcc-6translators")
	}
}

func BenchmarkFigure6L2CodeAccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[4].Values[1]*1e6, "gcc-accesses-per-Mcycle")
	}
}

func BenchmarkFigure7L2CodeMissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[1].Values[1], "gcc-missrate-1spec")
		b.ReportMetric(f.Series[5].Values[1], "gcc-missrate-9spec")
	}
}

func BenchmarkFigure8Optimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Values[0], "gzip-noopt")
		b.ReportMetric(f.Series[1].Values[0], "gzip-opt")
	}
}

func BenchmarkFigure9Reconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Values[2], "mcf-1mem9trans")
		b.ReportMetric(f.Series[1].Values[2], "mcf-4mem6trans")
	}
}

func BenchmarkFigure10RelativeMorph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := quickSuite().Figure10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Values[2], "mcf-pct-faster-4mem")
	}
}

func BenchmarkFigure11Intrinsics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := quickSuite().Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Rows[0].MeasuredLat, "L1hit-lat")
		b.ReportMetric(tab.Rows[1].MeasuredLat, "L2hit-lat")
		b.ReportMetric(tab.Rows[2].MeasuredLat, "L2miss-lat")
	}
}

func BenchmarkHeadlineSlowdownBand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := quickSuite().Headline(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end figure-suite timing ---
//
// These measure the wall-clock cost of regenerating Figures 4-10 plus
// the headline over the quick subset, serial vs the RunParallel worker
// pool — the perf-trajectory numbers recorded in BENCH_sim.json.

func runFigureSuite(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		s.Workers = workers
		figs := []func() (*bench.Figure, error){
			s.Figure4, s.Figure5, s.Figure6, s.Figure7,
			s.Figure8, s.Figure9, s.Figure10,
		}
		for _, f := range figs {
			if _, err := f(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Headline(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureSuiteSerial(b *testing.B) { runFigureSuite(b, 1) }

func BenchmarkFigureSuiteParallel(b *testing.B) { runFigureSuite(b, 8) }
