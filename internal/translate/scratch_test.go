package translate

import (
	"errors"
	"reflect"
	"testing"

	"tilevm/internal/codegen"
	"tilevm/internal/guest"
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
	"tilevm/internal/workload"
)

// pressureBlock is IR with one more temporary live at once than the
// host has, which no guest code reaches: the most a single lowered
// instruction of the workloads or of the differential tests' generator
// keeps live is 7 of the 15, and the optimizer carries a temporary from
// one guest instruction to another only as the value of a load through
// one of the eight guest registers.
func pressureBlock(t *testing.T) *ir.Block {
	b := ir.NewBuilder(0x1000)
	var regs []uint8
	for i := 0; i <= codegen.NumTemps; i++ {
		v := b.VReg()
		b.LoadImm(v, uint32(i+1))
		regs = append(regs, v)
	}
	for _, v := range regs {
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
	}
	b.ExitImm(0)
	blk, err := b.Finish(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestScratchReuseIsInvisible translates every corpus block on one
// long-lived Translator that between blocks is put through everything
// that leaves its scratch in a different state — a block of another
// shape, the IR-returning entry point, a block cut short by undecodable
// bytes, a translation that fails outright, and the register-pressure
// ladder's retries at caps 32, 8, 2 and 1 with the allocator giving up
// mid-block — and requires each result, all held to the end, to be
// deeply equal to what a Translator fresh for that one block returns.
// The IR blocks Translate handed out along the way must still read as
// they did when they were returned.
func TestScratchReuseIsInvisible(t *testing.T) {
	const junk = 0x0030_0000
	pressure := pressureBlock(t)
	for _, name := range []string{"176.gcc", "164.gzip", "181.mcf"} {
		p, _ := workload.ByName(name)
		img := p.Build()
		mem := guest.Load(img).Mem
		// inc eax; inc eax; then an opcode the decoder rejects.
		mem.WriteBytes(junk, []byte{0x40, 0x40, 0x0F, 0x05})

		for _, opts := range []Options{{Optimize: true}, {ConservativeFlags: true}} {
			var addrs []uint32
			for _, r := range New(opts).Reachable(mem, img.Entry) {
				addrs = append(addrs, r.GuestAddr)
			}
			long := New(opts)
			type kept struct {
				blk  *Block
				text string
			}
			var (
				final []*Result
				irs   []kept
			)
			for i, a := range addrs {
				other := addrs[(i*7+3)%len(addrs)]
				switch i % 4 {
				case 0:
					long.TranslateFinal(mem, other)
				case 1:
					blk, err := long.Translate(mem, other)
					if err != nil {
						t.Fatalf("%s %#x: Translate: %v", name, other, err)
					}
					irs = append(irs, kept{blk, blk.Block.String()})
				case 2:
					if res, err := long.TranslateFinal(mem, junk); err != nil || res.NumGuest != 2 {
						t.Fatalf("%s: block cut short by junk: %+v, %v", name, res, err)
					}
					if _, err := long.TranslateFinal(mem, junk+2); err == nil {
						t.Fatalf("%s: junk translated", name)
					}
				case 3:
					// TranslateFinal's ladder, every rung failing the
					// way a block under pressure fails it.
					for _, cap := range []int{MaxBlockInsts, 8, 2, 1} {
						blk, err := long.translate(mem, other, cap)
						if err != nil {
							t.Fatalf("%s %#x cap %d: %v", name, other, cap, err)
						}
						if opts.Optimize {
							long.opt.Run(blk.Block)
						}
						if _, err := long.cg.Finalize(pressure); !errors.Is(err, codegen.ErrRegPressure) {
							t.Fatalf("pressure block: %v", err)
						}
					}
				}
				res, err := long.TranslateFinal(mem, a)
				if err != nil {
					t.Fatalf("%s %#x: %v", name, a, err)
				}
				final = append(final, res)
			}

			for i, a := range addrs {
				want, err := New(opts).TranslateFinal(mem, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(final[i], want) {
					t.Fatalf("%s %+v block %#x: long-lived translator\n%s%+v\nfresh\n%s%+v",
						name, opts, a, rawisa.Disassemble(final[i].Code), *final[i], rawisa.Disassemble(want.Code), *want)
				}
			}
			for _, k := range irs {
				if got := k.blk.Block.String(); got != k.text {
					t.Fatalf("%s: IR block from Translate changed under later calls:\n%s\nwas\n%s", name, got, k.text)
				}
				if err := k.blk.Block.Validate(); err != nil {
					t.Fatalf("%s: IR block from Translate: %v", name, err)
				}
			}
			if len(irs) == 0 {
				t.Fatalf("%s: no IR block checked", name)
			}
		}
	}
}
