// Package irfuzz turns fuzzer input into IR blocks and IR blocks into
// fuzzer input, for the differential fuzz targets that hold the
// optimizer and the register allocator to reference implementations
// kept in their test files. It is imported by tests only.
//
// An input is a header and then nine bytes an instruction:
//
//	mode, labels, labels × (position lo, hi)
//	op, rd, rs, rt, imm (4 bytes, little endian), label
//
// Mode bit 0 set keeps register fields and immediates as written: every
// register number, junk in fields an op does not read, immediates no
// format can encode. Clear, register bytes name one of r0–r9 and vregs
// 32–55 (24 vregs, more than the 15 host temporaries, so blocks run out
// of registers), or vreg 255 for bytes with the top bit set, and
// immediates are sign-extended from their low byte.
package irfuzz

import (
	"encoding/binary"
	"slices"

	"tilevm/internal/guest"
	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
	"tilevm/internal/translate"
	"tilevm/internal/workload"
)

const instBytes = 9

// numOps is the size of the opcode space: ASSIST is the last opcode.
const numOps = int(rawisa.ASSIST) + 1

// Block decodes data into a block. Opcodes are taken modulo the opcode
// space, with the raw jumps the IR forbids (J, JAL, JR) read as SYSC; a
// branch names one of the header's labels (a label at the block's last
// instruction is made up if there is none); a label position past the
// code wraps, and 0xffff leaves the label unbound. A block that does not
// end in an exit gets an EXITI. The result may still fail Validate (a
// branch to an unbound label); callers skip those.
func Block(data []byte) *ir.Block {
	next := func(n int) []byte {
		var b [instBytes]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return b[:n]
	}
	hdr := next(2)
	raw := hdr[0]&1 != 0
	labels := make([]int, hdr[1])
	for i := range labels {
		labels[i] = int(binary.LittleEndian.Uint16(next(2)))
	}
	b := &ir.Block{GuestAddr: 0x1000}
	for len(data) > 0 {
		f := next(instBytes)
		in := ir.Inst{Inst: rawisa.Inst{Op: rawisa.Op(int(f[0]) % numOps)}, Label: ir.NoLabel}
		if in.Op == rawisa.J || in.Op == rawisa.JAL || in.Op == rawisa.JR {
			in.Op = rawisa.SYSC
		}
		in.Rd, in.Rs, in.Rt = f[1], f[2], f[3]
		in.Imm = int32(binary.LittleEndian.Uint32(f[4:8]))
		if !raw {
			in.Rd, in.Rs, in.Rt = poolReg(f[1]), poolReg(f[2]), poolReg(f[3])
			in.Imm = int32(int8(f[4]))
		}
		if isBranch(in.Op) {
			in.Label = int(f[8]) // resolved below, once the labels are known
		}
		b.Code = append(b.Code, in)
	}
	if len(b.Code) == 0 || !b.Code[len(b.Code)-1].IsBlockEnd() {
		b.Code = append(b.Code, ir.Inst{Inst: rawisa.Inst{Op: rawisa.EXITI}, Label: ir.NoLabel})
	}
	for i, p := range labels {
		if p == 0xffff {
			labels[i] = -1
		} else {
			labels[i] = p % len(b.Code)
		}
	}
	for i := range b.Code {
		if b.Code[i].Label == ir.NoLabel {
			continue
		}
		if len(labels) == 0 {
			labels = append(labels, len(b.Code)-1)
		}
		b.Code[i].Label %= len(labels)
	}
	b.LabelPos = labels
	return b
}

// Bytes encodes b, which must have at most 255 labels, each bound below
// 0xffff, so that Block(Bytes(b)) has b's code and label positions: the
// form the fuzz targets are seeded with from translated guest code.
func Bytes(b *ir.Block) []byte {
	out := []byte{1, byte(len(b.LabelPos))}
	for _, p := range b.LabelPos {
		if p < 0 {
			p = 0xffff
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(p))
	}
	for _, in := range b.Code {
		out = append(out, byte(in.Op), in.Rd, in.Rs, in.Rt)
		out = binary.LittleEndian.AppendUint32(out, uint32(in.Imm))
		out = append(out, byte(max(in.Label, 0)))
	}
	return out
}

// Corpus returns every nth block of 176.gcc's statically reachable code
// (translate.Translator.Reachable's walk), lowered to IR and not yet
// optimized: the guest with the largest code working set, whose blocks
// the translator micro-benchmarks also run.
func Corpus(nth int) []*ir.Block {
	p, _ := workload.ByName("176.gcc")
	img := p.Build()
	mem := guest.Load(img).Mem
	tr := translate.New(translate.Options{Optimize: true})
	var out []*ir.Block
	for i, r := range tr.Reachable(mem, img.Entry) {
		if i%nth != 0 {
			continue
		}
		if blk, err := tr.Translate(mem, r.GuestAddr); err == nil {
			out = append(out, blk.Block)
		}
	}
	return out
}

// Seeds returns the seed inputs of the IR fuzz targets: every 40th
// block of the corpus, and hand-made blocks in pooled mode — a label at
// instruction 0, a syscall and an assist between facts, vreg 255 in
// every field, and more live vregs than there are host temporaries.
func Seeds() [][]byte {
	var seeds [][]byte
	for _, b := range Corpus(40) {
		seeds = append(seeds, Bytes(b))
	}
	inst := func(op rawisa.Op, rd, rs, rt, imm, label byte) []byte {
		return []byte{byte(op), rd, rs, rt, imm, 0, 0, 0, label}
	}
	const ( // pooled register bytes
		eax, ebx, v32, v33, v34, v255 = 1, 4, 10, 11, 12, 0x80
	)
	const (
		addi, or, beq, glw, gsw = rawisa.ADDI, rawisa.OR, rawisa.BEQ, rawisa.GLW, rawisa.GSW
		sysc, assist, exiti     = rawisa.SYSC, rawisa.ASSIST, rawisa.EXITI
	)
	seeds = append(seeds, slices.Concat([]byte{0, 1, 0, 0}, // label 0 at instruction 0
		inst(addi, v32, 0, 0, 5, 0), inst(beq, 0, v32, eax, 0, 0),
		inst(or, v33, v32, 0, 0, 0), inst(exiti, 0, 0, 0, 0, 0)))
	seeds = append(seeds, slices.Concat([]byte{0, 0},
		inst(or, v32, eax, 0, 0, 0), inst(glw, v33, v32, 0, 0, 0), inst(sysc, 0, 0, 0, 0, 0),
		inst(or, ebx, v32, 0, 0, 0), inst(glw, v34, v32, 0, 0, 0), inst(assist, 0, 0, 0, 0, 0),
		inst(gsw, 0, v32, v34, 0, 0), inst(glw, eax, v32, 0, 0, 0), inst(exiti, 0, 0, 0, 0, 0)))
	seeds = append(seeds, slices.Concat([]byte{0, 0},
		inst(addi, v255, v255, v255, 1, 0), inst(or, v255, v255, v255, 0, 0),
		inst(glw, v255, v255, v255, 0, 0), inst(or, eax, v255, 0, 0, 0), inst(exiti, 0, 0, 0, 0, 0)))
	pressure := []byte{0, 0}
	for r := byte(10); r < 34; r++ { // define vregs 32..55, then read them all
		pressure = append(pressure, inst(addi, r, eax, 0, r, 0)...)
	}
	for r := byte(10); r < 34; r++ {
		pressure = append(pressure, inst(gsw, 0, eax, r, 0, 0)...)
	}
	seeds = append(seeds, append(pressure, inst(exiti, 0, 0, 0, 0, 0)...))
	return seeds
}

func poolReg(b byte) uint8 {
	if b&0x80 != 0 {
		return 255
	}
	if r := b % 34; r >= 10 {
		return ir.FirstVReg + r - 10
	}
	return b % 34
}

func isBranch(op rawisa.Op) bool {
	switch op {
	case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
		return true
	}
	return false
}
