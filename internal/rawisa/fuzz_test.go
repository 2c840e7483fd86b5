package rawisa_test

import (
	"math/bits"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/rawisa"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

// FuzzWordRoundTrip: every instruction Append accepts decodes to itself,
// in the number of words its opcode takes, and one it rejects appends
// nothing. The seeds come from the translator's digest corpus (every
// reachable block of every workload profile, the optimizer on and off):
// the first instruction of each opcode at each immediate sign and
// width, some seventy in all.
func FuzzWordRoundTrip(f *testing.F) {
	type shape struct {
		op    rawisa.Op
		neg   bool
		width int
	}
	seen := map[shape]bool{}
	for _, p := range workload.Profiles() {
		img := p.Build()
		mem := guest.Load(img).Mem
		for _, opts := range []translate.Options{{Optimize: true}, {}} {
			for _, r := range translate.New(opts).Reachable(mem, img.Entry) {
				code, err := rawisa.DecodeAll(r.Code)
				if err != nil {
					f.Fatalf("%s %#x: %v", p.Name, r.GuestAddr, err)
				}
				for _, in := range code {
					k := shape{in.Op, in.Imm < 0, bits.Len32(uint32(in.Imm))}
					if k.neg {
						k.width = bits.Len32(uint32(-in.Imm))
					}
					if !seen[k] {
						seen[k] = true
						f.Add(uint8(in.Op), in.Rd, in.Rs, in.Rt, in.Imm)
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, op, rd, rs, rt uint8, imm int32) {
		in := rawisa.Inst{Op: rawisa.Op(op), Rd: rd, Rs: rs, Rt: rt, Imm: imm}
		prefix := []rawisa.Word{0xffffffff}
		w, err := rawisa.Append(prefix, &in)
		if err != nil {
			if len(w) != 1 {
				t.Fatalf("%+v: rejected (%v) but appended %d words", in, err, len(w)-1)
			}
			return
		}
		got, n, err := rawisa.Decode(w, 1)
		if err != nil {
			t.Fatalf("%+v encodes to %x, which does not decode: %v", in, w[1:], err)
		}
		if got != in || n != len(w)-1 || n != in.Op.Words() {
			t.Fatalf("%+v encodes to %x, which decodes to %+v in %d words", in, w[1:], got, n)
		}
	})
}
