package irfuzz

import (
	"slices"
	"testing"
)

// TestBytesRoundTrip checks that the corpus seeds decode to the blocks
// they were made from.
func TestBytesRoundTrip(t *testing.T) {
	blocks := Corpus(10)
	if len(blocks) < 100 {
		t.Fatalf("%d corpus blocks", len(blocks))
	}
	for _, b := range blocks {
		got := Block(Bytes(b))
		if !slices.Equal(got.Code, b.Code) || !slices.Equal(got.LabelPos, b.LabelPos) {
			t.Fatalf("round trip changed the block:\n%s\n%v\ngot:\n%s\n%v", b, b.LabelPos, got, got.LabelPos)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
