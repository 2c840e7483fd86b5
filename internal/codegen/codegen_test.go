package codegen

import (
	"errors"
	"slices"
	"testing"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

func build(t *testing.T, f func(b *ir.Builder)) *ir.Block {
	t.Helper()
	b := ir.NewBuilder(0x1000)
	f(b)
	blk, err := b.Finish(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// finalize runs Finalize and decodes its words back to instructions.
func finalize(t *testing.T, blk *ir.Block) ([]rawisa.Inst, error) {
	t.Helper()
	w, err := Finalize(blk)
	if err != nil {
		return nil, err
	}
	code, err := rawisa.DecodeAll(w)
	if err != nil {
		t.Fatal(err)
	}
	return code, nil
}

func TestFinalizeMapsVRegs(t *testing.T) {
	blk := build(t, func(b *ir.Builder) {
		v1 := b.VReg()
		v2 := b.VReg()
		b.LoadImm(v1, 5)
		b.OpI(rawisa.ADDI, v2, v1, 1)
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v2)
		b.ExitImm(0x1004)
	})
	code, err := finalize(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range code {
		for _, r := range []uint8{in.Rd, in.Rs, in.Rt} {
			if r >= ir.FirstVReg {
				t.Errorf("inst %d still has virtual register %d: %v", i, r, in)
			}
		}
	}
}

func TestFinalizeReusesRegisters(t *testing.T) {
	// Sequential short-lived temps must recycle the same host register.
	blk := build(t, func(b *ir.Builder) {
		for i := 0; i < 40; i++ {
			v := b.VReg()
			b.LoadImm(v, uint32(i))
			b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		}
		b.ExitImm(0)
	})
	code, err := finalize(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint8]bool{}
	for _, in := range code {
		if d := in.Def(); d >= uint8(rawisa.RegTmp0) && d <= uint8(rawisa.RegTmpN) {
			used[d] = true
		}
	}
	if len(used) > 2 {
		t.Errorf("40 sequential temps used %d host registers", len(used))
	}
}

func TestFinalizePressureError(t *testing.T) {
	// More simultaneously-live temps than the pool has.
	blk := build(t, func(b *ir.Builder) {
		var regs []uint8
		for i := 0; i < NumTemps+2; i++ {
			v := b.VReg()
			b.LoadImm(v, uint32(i))
			regs = append(regs, v)
		}
		// Use them all at the end so every range spans the block.
		for _, v := range regs {
			b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		}
		b.ExitImm(0)
	})
	_, err := Finalize(blk)
	if !errors.Is(err, ErrRegPressure) {
		t.Fatalf("err = %v, want ErrRegPressure", err)
	}
}

func TestFinalizeResolvesBranches(t *testing.T) {
	blk := build(t, func(b *ir.Builder) {
		l := b.NewLabel()
		b.EmitBranch(rawisa.Inst{Op: rawisa.BNE, Rs: rawisa.RegEAX, Rt: 0}, l)
		b.OpI(rawisa.ADDI, rawisa.RegEBX, rawisa.RegEBX, 1)
		b.OpI(rawisa.ADDI, rawisa.RegEBX, rawisa.RegEBX, 2)
		b.Bind(l)
		b.ExitImm(0)
	})
	code, err := finalize(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	if code[0].Op != rawisa.BNE || code[0].Imm != 2 {
		t.Errorf("branch offset = %d, want 2 (%v)", code[0].Imm, code[0])
	}
}

// A branch offset counts words: over a two-word ASSIST it is one more
// than the instructions it skips.
func TestFinalizeBranchCountsWords(t *testing.T) {
	blk := build(t, func(b *ir.Builder) {
		l := b.NewLabel()
		b.EmitBranch(rawisa.Inst{Op: rawisa.BNE, Rs: rawisa.RegEAX, Rt: 0}, l)
		b.Emit(rawisa.Inst{Op: rawisa.ASSIST, Imm: 0x1000})
		b.OpI(rawisa.ADDI, rawisa.RegEBX, rawisa.RegEBX, 1)
		b.Bind(l)
		b.ExitImm(0)
	})
	w, err := Finalize(blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 6 || w[0].Op() != rawisa.BNE || w[0].SImm() != 3 || w[4].Op() != rawisa.EXITI {
		t.Errorf("%d words, branch offset %d, want 6 words and 3:\n%s", len(w), w[0].SImm(), rawisa.Disassemble(w))
	}
}

// An instruction with no encoding fails the block; it is not truncated
// into a word that means something else.
func TestFinalizeRejectsUnencodable(t *testing.T) {
	blk := build(t, func(b *ir.Builder) {
		b.OpI(rawisa.ADDI, rawisa.RegEAX, rawisa.RegEAX, 1<<20)
		b.ExitImm(0)
	})
	if code, err := Finalize(blk); err == nil || errors.Is(err, ErrRegPressure) {
		t.Errorf("Finalize = %v, %v; want an encoding error", code, err)
	}
}

func TestFinalizeKeepsPhysicalRegisters(t *testing.T) {
	blk := build(t, func(b *ir.Builder) {
		b.OpI(rawisa.ADDI, rawisa.RegESP, rawisa.RegESP, -4)
		b.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: rawisa.RegESP, Rt: rawisa.RegEAX})
		b.ExitImm(0)
	})
	code, err := finalize(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	if code[0].Rd != rawisa.RegESP || code[1].Rs != rawisa.RegESP || code[1].Rt != rawisa.RegEAX {
		t.Errorf("physical registers remapped: %v %v", code[0], code[1])
	}
}

func TestFinalizeDeterministic(t *testing.T) {
	mk := func() []rawisa.Inst {
		blk := build(t, func(b *ir.Builder) {
			var vs []uint8
			for i := 0; i < 8; i++ {
				v := b.VReg()
				b.LoadImm(v, uint32(i*3))
				vs = append(vs, v)
			}
			for _, v := range vs {
				b.Op3(rawisa.XOR, rawisa.RegEAX, rawisa.RegEAX, v)
			}
			b.ExitImm(0)
		})
		code, err := finalize(t, blk)
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic allocation at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// liveAtOnce builds n temporaries that are all live at the same point.
func liveAtOnce(t *testing.T, n int) *ir.Block {
	return build(t, func(b *ir.Builder) {
		var regs []uint8
		for i := 0; i < n; i++ {
			v := b.VReg()
			b.LoadImm(v, uint32(i))
			regs = append(regs, v)
		}
		for _, v := range regs {
			b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		}
		b.ExitImm(0)
	})
}

func TestFinalizePressureBoundary(t *testing.T) {
	// Exactly the pool fits, handed out lowest register first.
	code, err := finalize(t, liveAtOnce(t, NumTemps))
	if err != nil {
		t.Fatalf("%d live temps: %v", NumTemps, err)
	}
	for i := 0; i < NumTemps; i++ {
		if want := uint8(rawisa.RegTmp0 + i); code[i].Rd != want || code[NumTemps+i].Rt != want {
			t.Errorf("temp %d in r%d (used as r%d), want r%d", i, code[i].Rd, code[NumTemps+i].Rt, want)
		}
	}
	// One more does not.
	if _, err := Finalize(liveAtOnce(t, NumTemps+1)); !errors.Is(err, ErrRegPressure) {
		t.Fatalf("%d live temps: err = %v, want ErrRegPressure", NumTemps+1, err)
	}
}

func TestFinalizeRedefinedAfterFree(t *testing.T) {
	// A vreg defined again after its last use has lost its register
	// (here to w): the new def takes the lowest free one and holds it
	// for that instruction only. Vreg 255 is the top table index.
	const v = 255
	blk := build(t, func(b *ir.Builder) {
		w, x := b.VReg(), b.VReg()
		b.LoadImm(v, 1)
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v) // last use of v
		b.LoadImm(w, 2)
		b.LoadImm(v, 3) // dead redefinition
		b.Op3(rawisa.ADD, rawisa.RegEBX, rawisa.RegEBX, w)
		b.LoadImm(x, 4)
		b.Op3(rawisa.ADD, rawisa.RegECX, rawisa.RegECX, x)
		b.ExitImm(0)
	})
	code, err := finalize(t, blk)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := uint8(rawisa.RegTmp0), uint8(rawisa.RegTmp0+1)
	got := [...]uint8{code[0].Rd, code[1].Rt, code[2].Rd, code[3].Rd, code[4].Rt, code[5].Rd, code[6].Rt}
	if want := [...]uint8{t0, t0, t0, t1, t0, t0, t0}; got != want {
		t.Errorf("allocation %v, want %v\n%v", got, want, code)
	}

	// Reading a vreg that never had a def is an error.
	blk.Code[6].Rt = 254
	if _, err := Finalize(blk); err == nil || errors.Is(err, ErrRegPressure) {
		t.Errorf("use of undefined vreg: err = %v", err)
	}
}

// TestScratchReuse finalizes a series of blocks through one Scratch —
// among them the top table index, a block that fails on pressure partway
// through its allocation and one that fails on an undefined vreg — and
// requires from each what a Scratch of its own gives: a block's tables
// are clear of every block before it, however that one ended.
func TestScratchReuse(t *testing.T) {
	undefined := liveAtOnce(t, 3)
	undefined.Code[4].Rt = 254
	neverDefined := liveAtOnce(t, 3)
	neverDefined.Code[4].Rt = ir.FirstVReg + 5 // defined by earlier blocks, not by this one
	blocks := []*ir.Block{
		liveAtOnce(t, NumTemps),
		build(t, func(b *ir.Builder) { // vreg 255, then a use that reads no stale assignment
			b.LoadImm(255, 1)
			b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, 255)
			b.ExitImm(0)
		}),
		build(t, func(b *ir.Builder) { // a dead def holds its register for one instruction, not for the range the last block gave that vreg
			dead, v := b.VReg(), b.VReg()
			b.LoadImm(dead, 1)
			b.LoadImm(v, 2)
			b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
			b.ExitImm(0)
		}),
		liveAtOnce(t, NumTemps+1), // ErrRegPressure with every host register taken
		liveAtOnce(t, 4),
		undefined,
		undefined, // vreg 254 must not have become defined by the failed attempt
		neverDefined,
		liveAtOnce(t, NumTemps),
	}
	var s Scratch
	for i, blk := range blocks {
		got, gotErr := s.Finalize(blk)
		want, wantErr := Finalize(blk)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("block %d: reused scratch err = %v, fresh err = %v", i, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Errorf("block %d: reused scratch\n%sfresh\n%s", i, rawisa.Disassemble(got), rawisa.Disassemble(want))
		}
	}
}
