package opt

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// fixpointRun is the oracle for Run: the optimizer loop that repeats all
// four passes until a sweep leaves the block unchanged, at most four
// times, then hoists loads. The passes no longer report whether they
// changed anything, so a sweep counts as a change when the block's code
// or label positions differ after it — which is when one of the passes
// rewrote or removed an instruction. It returns the sweeps it ran.
func (s *Scratch) fixpointRun(b *ir.Block) int {
	targets := s.targetsOf(b)
	sweeps := 0
	for i := 0; i < 4; i++ {
		code, labels := slices.Clone(b.Code), slices.Clone(b.LabelPos)
		s.constFold(b, targets)
		s.copyProp(b, targets)
		s.redundantLoads(b, targets)
		s.deadCode(b, targets)
		sweeps++
		if slices.Equal(code, b.Code) && slices.Equal(labels, b.LabelPos) {
			break
		}
	}
	hoistLoads(b, targets)
	return sweeps
}

// matchesFixpoint optimizes the block data generates with Run and with
// the oracle, each in its own scratch, and fails t unless the two leave
// the same code (what Block.String prints) and label positions. It
// returns the oracle's sweep count.
func matchesFixpoint(t *testing.T, run, oracle *Scratch, data []byte) int {
	t.Helper()
	got, err := genBlock(data)
	if err != nil {
		t.Fatalf("generator built an invalid block: %v", err)
	}
	want, _ := genBlock(data)
	run.Run(got)
	sweeps := oracle.fixpointRun(want)
	if !slices.Equal(got.Code, want.Code) || !slices.Equal(got.LabelPos, want.LabelPos) {
		input, _ := genBlock(data)
		t.Fatalf("Run stopped short of the fixpoint (%d sweeps there)\ninput:\n%sRun:\n%s%v\nfixpoint:\n%s%v",
			sweeps, input, got, got.LabelPos, want, want.LabelPos)
	}
	return sweeps
}

// TestRunMatchesFixpoint checks Run's repeat rule against the oracle on
// 20,000 generated blocks, and that the inputs include blocks the oracle
// needs three or more sweeps for, so the rule was exercised.
func TestRunMatchesFixpoint(t *testing.T) {
	var run, oracle Scratch
	r := rand.New(rand.NewSource(26))
	deep := 0
	for i := 0; i < 20_000; i++ {
		data := make([]byte, 40+r.Intn(400))
		r.Read(data)
		if matchesFixpoint(t, &run, &oracle, data) >= 3 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no input needed a third sweep; the generator no longer tests the repeat rule")
	}
}

// FuzzRunMatchesFixpoint is TestRunMatchesFixpoint under the fuzzer,
// seeded with FuzzOptPreservesSemantics's seeds and checked-in corpus.
func FuzzRunMatchesFixpoint(f *testing.F) {
	var run, oracle Scratch
	addOptSeeds(func(data []byte, _ int64) { f.Add(data) })
	files, err := filepath.Glob("testdata/fuzz/FuzzOptPreservesSemantics/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("FuzzOptPreservesSemantics corpus: %v files, %v", len(files), err)
	}
	for _, name := range files {
		f.Add(corpusData(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) { matchesFixpoint(t, &run, &oracle, data) })
}

// corpusData returns the []byte argument of a checked-in fuzz corpus
// entry: the line `[]byte("...")` after the version header.
func corpusData(f *testing.F, name string) []byte {
	raw, err := os.ReadFile(name)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 2 {
		f.Fatalf("%s: no data line", name)
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")")
	data, err := strconv.Unquote(quoted)
	if !ok || !ok2 || err != nil {
		f.Fatalf("%s: data line %q: %v", name, lines[1], err)
	}
	return []byte(data)
}

// TestDeadCodeReportsCutFacts pins deadCode's repeat flag: a removed
// def of d enables another sweep when an earlier kept instruction holds
// a fact about d's value that the def cut short. In each case the flag
// is also exact — the oracle's second sweep changes the block iff it is
// set — and Run ends where the oracle does.
func TestDeadCodeReportsCutFacts(t *testing.T) {
	const eax, ebx, esi, edi = rawisa.RegEAX, rawisa.RegEBX, rawisa.RegESI, rawisa.RegEDI
	for _, tc := range []struct {
		name string
		want bool
		emit func(b *ir.Builder, v, w uint8)
	}{
		{"copy source", true, func(b *ir.Builder, v, w uint8) {
			b.OpI(rawisa.ADDI, v, esi, 1)
			b.Move(w, v)
			b.OpI(rawisa.ADDI, v, 0, 5) // dead: ends w's alias of v
			b.Op3(rawisa.ADD, eax, eax, w)
		}},
		{"stored value", true, func(b *ir.Builder, v, _ uint8) {
			b.OpI(rawisa.ADDI, v, esi, 1)
			b.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: edi, Rt: v})
			b.OpI(rawisa.ADDI, v, 0, 5) // dead: ends forwarding v to a load of (edi)
			b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: eax, Rs: edi})
		}},
		{"loaded value", true, func(b *ir.Builder, v, _ uint8) {
			b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: esi})
			b.Op3(rawisa.ADD, eax, eax, v)
			b.OpI(rawisa.ADDI, v, 0, 5) // dead: ends v as the value at (esi)
			b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: ebx, Rs: esi})
		}},
		{"no fact", false, func(b *ir.Builder, v, _ uint8) {
			b.OpI(rawisa.ADDI, v, esi, 1)
			b.Op3(rawisa.ADD, eax, eax, v)
			b.OpI(rawisa.ADDI, v, 0, 5)
		}},
		{"fact ended by a kept def", false, func(b *ir.Builder, v, _ uint8) {
			b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: esi})
			b.Op3(rawisa.ADD, eax, eax, v)
			b.OpI(rawisa.ADDI, v, esi, 2)
			b.Op3(rawisa.ADD, eax, eax, v)
			b.OpI(rawisa.ADDI, v, 0, 5)
		}},
		{"fact on a removed instruction", false, func(b *ir.Builder, v, w uint8) {
			b.OpI(rawisa.ADDI, v, esi, 1)
			b.Op3(rawisa.ADD, eax, eax, v)
			b.Move(w, v) // dead itself
			b.OpI(rawisa.ADDI, v, 0, 5)
		}},
	} {
		build := func() *ir.Block {
			return buildBlock(t, func(b *ir.Builder) {
				tc.emit(b, b.VReg(), b.VReg())
				b.ExitImm(0)
			})
		}
		blk := build()
		n := len(blk.Code)
		var s Scratch
		if got := s.deadCode(blk, s.targetsOf(blk)); got != tc.want || len(blk.Code) >= n {
			t.Errorf("%s: deadCode = %v with %d of %d instructions left, want %v\n%s",
				tc.name, got, len(blk.Code), n, tc.want, blk)
		}
		got, want := build(), build()
		new(Scratch).Run(got)
		if sweeps := new(Scratch).fixpointRun(want); sweeps > 2 != tc.want {
			t.Errorf("%s: the oracle ran %d sweeps\n%s", tc.name, sweeps, want)
		}
		if !slices.Equal(got.Code, want.Code) {
			t.Errorf("%s: Run stopped short of the fixpoint\nRun:\n%sfixpoint:\n%s", tc.name, got, want)
		}
	}
}
