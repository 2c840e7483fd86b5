package opt_test

import (
	"slices"
	"testing"

	"tilevm/internal/ir"
	"tilevm/internal/ir/irfuzz"
	"tilevm/internal/opt"
)

// FuzzOptMatchesReference runs a block through Run and through the
// reference optimizer (reference_test.go), each in a scratch kept
// across inputs as a translator keeps its own, and requires the same
// instructions and label positions.
func FuzzOptMatchesReference(f *testing.F) {
	for _, data := range irfuzz.Seeds() {
		f.Add(data)
	}
	var (
		run opt.Scratch
		ref refScratch
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := irfuzz.Block(data)
		if b.Validate() != nil {
			t.Skip()
		}
		want := &ir.Block{Code: slices.Clone(b.Code), LabelPos: slices.Clone(b.LabelPos)}
		before := b.String()
		run.Run(b)
		ref.Run(want)
		if !slices.Equal(b.Code, want.Code) || !slices.Equal(b.LabelPos, want.LabelPos) {
			t.Fatalf("Run differs from the reference\nin:\n%s\ngot:\n%s\nlabels %v\nwant:\n%s\nlabels %v",
				before, b, b.LabelPos, want, want.LabelPos)
		}
	})
}
