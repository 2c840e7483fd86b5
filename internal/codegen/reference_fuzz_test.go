package codegen_test

import (
	"fmt"
	"slices"
	"testing"

	"tilevm/internal/codegen"
	"tilevm/internal/ir"
	"tilevm/internal/ir/irfuzz"
	"tilevm/internal/opt"
)

// FuzzFinalizeMatchesReference finalizes a block with Finalize and with
// the reference allocator (reference_test.go), each in a scratch kept
// across inputs as a translator keeps its own, and requires the same
// words and the same error. It is seeded with the IR fuzz seeds and
// with the corpus blocks optimized, the form Finalize sees in a
// translation.
func FuzzFinalizeMatchesReference(f *testing.F) {
	for _, data := range irfuzz.Seeds() {
		f.Add(data)
	}
	for _, b := range irfuzz.Corpus(40) {
		opt.Run(b)
		f.Add(irfuzz.Bytes(b))
	}
	var (
		run codegen.Scratch
		ref refScratch
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := irfuzz.Block(data)
		if b.Validate() != nil {
			t.Skip()
		}
		in := &ir.Block{Code: slices.Clone(b.Code), LabelPos: slices.Clone(b.LabelPos)}
		orig := slices.Clone(b.Code)
		got, err := run.Finalize(b)
		want, wantErr := ref.Finalize(in)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("Finalize differs from the reference: %v, %d words; want %v, %d words\n%s",
				err, len(got), wantErr, len(want), b)
		}
		if !slices.Equal(b.Code, orig) {
			t.Fatal("Finalize modified its input block")
		}
	})
}
