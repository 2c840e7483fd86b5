package ir

import (
	"strings"
	"testing"

	"tilevm/internal/rawisa"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0x8048000)
	v1 := b.VReg()
	v2 := b.VReg()
	if v1 < FirstVReg || v2 != v1+1 {
		t.Fatalf("vregs: %d %d", v1, v2)
	}
	b.LoadImm(v1, 0x12345678)
	b.Op3(rawisa.ADD, v2, v1, rawisa.RegEAX)
	b.Move(rawisa.RegEAX, v2)
	b.ExitImm(0x8048005)
	blk, err := b.Finish(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.GuestAddr != 0x8048000 || blk.GuestLen != 5 || blk.NumGuest != 1 {
		t.Errorf("metadata: %+v", blk)
	}
	if blk.NumVRegs != 2 {
		t.Errorf("NumVRegs = %d", blk.NumVRegs)
	}
}

func TestLoadImmShapes(t *testing.T) {
	cases := []struct {
		v    uint32
		want int // instruction count
	}{
		{0, 0},          // move from zero folds to nothing for vregs? (OR to self) — emitted as OR
		{42, 1},         // ADDI
		{0x10000, 1},    // LUI only
		{0x12345678, 2}, // LUI+ORI
		{0xffffffff, 1}, // fits signed imm (-1)
	}
	for _, c := range cases {
		b := NewBuilder(0)
		v := b.VReg()
		b.LoadImm(v, c.v)
		n := len(b.b.Code)
		if c.v == 0 {
			if n > 1 {
				t.Errorf("LoadImm(0): %d insts", n)
			}
			continue
		}
		if n != c.want {
			t.Errorf("LoadImm(%#x): %d insts, want %d", c.v, n, c.want)
		}
	}
}

func TestMoveElidesSelf(t *testing.T) {
	b := NewBuilder(0)
	b.Move(5, 5)
	if len(b.b.Code) != 0 {
		t.Error("self-move emitted code")
	}
}

func TestAddImmWide(t *testing.T) {
	b := NewBuilder(0)
	v := b.VReg()
	b.AddImm(v, rawisa.RegEAX, 0x123456) // needs materialization
	b.ExitImm(0)
	blk, err := b.Finish(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Must not contain any out-of-range immediates.
	for _, in := range blk.Code {
		switch in.Op {
		case rawisa.ADDI:
			if !rawisa.FitsSImm(in.Imm) {
				t.Errorf("ADDI imm %d out of range", in.Imm)
			}
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	b := NewBuilder(0)
	l := b.NewLabel()
	b.EmitBranch(rawisa.Inst{Op: rawisa.BEQ, Rs: 1, Rt: 0}, l)
	b.OpI(rawisa.ADDI, rawisa.RegEAX, rawisa.RegEAX, 1)
	b.Bind(l)
	b.ExitImm(0x10)
	blk, err := b.Finish(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.LabelPos[l] != 2 {
		t.Errorf("label pos = %d, want 2", blk.LabelPos[l])
	}
	s := blk.String()
	if !strings.Contains(s, "L0") {
		t.Errorf("String() missing label:\n%s", s)
	}
}

func TestValidateRejectsBadBlocks(t *testing.T) {
	// No exit at end.
	b := NewBuilder(0)
	b.OpI(rawisa.ADDI, rawisa.RegEAX, rawisa.RegEAX, 1)
	if _, err := b.Finish(1, 1); err == nil {
		t.Error("missing exit accepted")
	}
	// Branch to unbound label.
	b = NewBuilder(0)
	l := b.NewLabel()
	b.EmitBranch(rawisa.Inst{Op: rawisa.BEQ}, l)
	b.ExitImm(0)
	if _, err := b.Finish(1, 1); err == nil {
		t.Error("unbound label accepted")
	}
	// Empty block.
	b = NewBuilder(0)
	if _, err := b.Finish(0, 0); err == nil {
		t.Error("empty block accepted")
	}
	// Raw jump not allowed in IR.
	b = NewBuilder(0)
	b.Emit(rawisa.Inst{Op: rawisa.J, Imm: 0})
	if _, err := b.Finish(1, 1); err == nil {
		t.Error("raw J accepted")
	}
}

func TestBindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double bind did not panic")
		}
	}()
	b := NewBuilder(0)
	l := b.NewLabel()
	b.Bind(l)
	b.ExitImm(0)
	b.Bind(l)
}
