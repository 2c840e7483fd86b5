package bench

import (
	"strings"
	"testing"
)

// idx finds a benchmark's column.
func idx(f *Figure, bench string) int {
	for i, b := range f.Benchmarks {
		if b == bench {
			return i
		}
	}
	return -1
}

func series(f *Figure, label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// The figure tests share one suite so runs are cached across tests.
var shared = NewSuite()

func TestFigure4Shape(t *testing.T) {
	f, err := shared.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	no := series(f, "no L1.5")
	two := series(f, "128KB 2 banks")
	// Benchmarks with big code working sets must improve with the
	// L1.5; small-working-set ones should be roughly unaffected.
	for _, b := range []string{"176.gcc", "186.crafty", "255.vortex", "175.vpr"} {
		i := idx(f, b)
		if two.Values[i] >= no.Values[i] {
			t.Errorf("%s: L1.5 did not help (%.1f -> %.1f)", b, no.Values[i], two.Values[i])
		}
	}
	for _, b := range []string{"164.gzip", "181.mcf", "256.bzip2"} {
		i := idx(f, b)
		ratio := no.Values[i] / two.Values[i]
		if ratio > 1.25 {
			t.Errorf("%s: small benchmark unexpectedly L1.5-sensitive (ratio %.2f)", b, ratio)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	f, err := shared.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	s1 := series(f, "1 speculative")
	s6 := series(f, "6 speculative")
	// Overall trend: more translation resources help on most
	// benchmarks (paper: all but vpr/gcc/crafty improve).
	improved := 0
	for i := range f.Benchmarks {
		if s6.Values[i] < s1.Values[i]*1.02 {
			improved++
		}
	}
	if improved < len(f.Benchmarks)/2 {
		t.Errorf("only %d/%d benchmarks improved from 1 to 6 translators", improved, len(f.Benchmarks))
	}
}

func TestFigure7MissRateDeclines(t *testing.T) {
	f, err := shared.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	s1 := series(f, "1 speculative")
	s9 := series(f, "9 speculative")
	declined := 0
	for i := range f.Benchmarks {
		if s9.Values[i] <= s1.Values[i] {
			declined++
		}
	}
	if declined < len(f.Benchmarks)*2/3 {
		t.Errorf("L2 code miss rate declined on only %d/%d benchmarks", declined, len(f.Benchmarks))
	}
}

func TestFigure6RatesSpread(t *testing.T) {
	f, err := shared.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	s6 := series(f, "6 speculative")
	lo, hi := 1.0, 0.0
	for _, v := range s6.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo < 4 {
		t.Errorf("L2 code access rates too uniform: %.2e .. %.2e", lo, hi)
	}
	// gcc, crafty, vortex must be at the top (the congestion cases).
	top := (series(f, "6 speculative").Values[idx(f, "176.gcc")] +
		s6.Values[idx(f, "255.vortex")]) / 2
	if s6.Values[idx(f, "164.gzip")] > top {
		t.Error("gzip should access the L2 code cache far less than gcc/vortex")
	}
}

func TestFigure8OptimizationWins(t *testing.T) {
	f, err := shared.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	noopt := series(f, "without optimization")
	opt := series(f, "with optimization")
	for i, b := range f.Benchmarks {
		if opt.Values[i] >= noopt.Values[i] {
			t.Errorf("%s: optimization did not pay (%.1f -> %.1f)", b, noopt.Values[i], opt.Values[i])
		}
	}
}

func TestFigure9And10Shape(t *testing.T) {
	f9, err := shared.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f9.String())
	f10, err := shared.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f10.String())

	mem1 := series(f9, "1 mem / 9 trans")
	mem4 := series(f9, "4 mem / 6 trans")
	// mcf (data-bound, 96KB working set) must prefer the 4-bank
	// configuration; a big-code benchmark should prefer translators.
	i := idx(f9, "181.mcf")
	if mem4.Values[i] >= mem1.Values[i] {
		t.Errorf("mcf: 4 banks (%.2f) should beat 1 bank (%.2f)", mem4.Values[i], mem1.Values[i])
	}
	g := idx(f9, "176.gcc")
	if mem1.Values[g] >= mem4.Values[g]*1.10 {
		t.Errorf("gcc: 9 translators (%.2f) should be at least competitive with 6 (%.2f)",
			mem1.Values[g], mem4.Values[g])
	}
	// Dynamic reconfiguration should land between or beat the statics
	// on most benchmarks (paper: beats best static on gzip, mcf,
	// parser, bzip2; loses on others).
	dyn := series(f9, "morph thresh 5")
	reasonable := 0
	for i := range f9.Benchmarks {
		best := mem1.Values[i]
		if mem4.Values[i] < best {
			best = mem4.Values[i]
		}
		worst := mem1.Values[i]
		if mem4.Values[i] > worst {
			worst = mem4.Values[i]
		}
		if dyn.Values[i] <= worst*1.15 {
			reasonable++
		}
		_ = best
	}
	if reasonable < len(f9.Benchmarks)-2 {
		t.Errorf("morphing unreasonable on %d benchmarks", len(f9.Benchmarks)-reasonable)
	}
}

func TestHeadlineBand(t *testing.T) {
	out, err := shared.Headline()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	f, err := shared.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	def := series(f, "default")
	noChain := series(f, "no chaining")
	worse := 0
	for i := range f.Benchmarks {
		if noChain.Values[i] > def.Values[i] {
			worse++
		}
	}
	if worse < len(f.Benchmarks)/2 {
		t.Errorf("disabling chaining hurt only %d/%d benchmarks", worse, len(f.Benchmarks))
	}
}

func TestHardwareWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("what-if in -short mode")
	}
	f, err := shared.HardwareWhatIf()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	sw := series(f, "all software (paper)")
	mmu := series(f, "+ hardware MMU")
	ic := series(f, "+ hardware I-cache")
	both := series(f, "+ both")
	// The MMU must help the memory-bound benchmarks most; the I-cache
	// must help the code-bound ones most; both must beat either.
	iMcf, iGcc := idx(f, "181.mcf"), idx(f, "176.gcc")
	if mmu.Values[iMcf] >= sw.Values[iMcf] {
		t.Error("hardware MMU did not help mcf")
	}
	if ic.Values[iGcc] >= sw.Values[iGcc]*0.9 {
		t.Errorf("hardware I-cache did not substantially help gcc (%.1f -> %.1f)",
			sw.Values[iGcc], ic.Values[iGcc])
	}
	for i, b := range f.Benchmarks {
		if both.Values[i] > sw.Values[i]*1.02 {
			t.Errorf("%s: both assists made things worse (%.1f -> %.1f)",
				b, sw.Values[i], both.Values[i])
		}
	}
}

func TestUtilizationReport(t *testing.T) {
	out, err := shared.Utilization("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

// A cell prints with two decimals unless it is too small for them: a
// positive value under 0.01 in e-notation, a negative one with its sign
// in two decimals, as the published tables have it.
func TestFigureStringCells(t *testing.T) {
	f := &Figure{Name: "Figure 10", Title: "t", Metric: "m",
		Benchmarks: []string{"164.gzip", "254.gap", "256.bzip2"},
		Series:     []Series{{Label: "morph thresh 0", Values: []float64{-0.0013, -0.0604, 0.0021}}}}
	want := "morph thresh 0         -0.00       -0.06    2.10e-03\n"
	if got := f.String(); !strings.Contains(got, want) {
		t.Errorf("row renders as\n%s\nwant the line\n%s", got, want)
	}
}
