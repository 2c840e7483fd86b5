package opt

import (
	"testing"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

// Edge cases the map-based fact tables handled implicitly and the
// dense tables must handle explicitly.

func wantCode(t *testing.T, b *ir.Block, want ...rawisa.Inst) {
	t.Helper()
	if len(b.Code) != len(want) {
		t.Fatalf("got %d instructions, want %d:\n%s", len(b.Code), len(want), b)
	}
	for i, w := range want {
		if b.Code[i].Inst != w {
			t.Errorf("inst %d = %v, want %v\n%s", i, b.Code[i].Inst, w, b)
		}
	}
}

func TestRegFactsTable(t *testing.T) {
	var f regFacts[uint8]
	for r := 0; r < 256; r++ { // every register at once, 255 included
		f.set(uint8(r), uint8(r/2))
	}
	if v, ok := f.get(255); !ok || v != 127 || f.n != 256 {
		t.Fatalf("get(255) = %d,%v with %d facts", v, ok, f.n)
	}
	f.set(255, 199) // overwrite keeps one entry
	f.del(0)
	f.del(0)               // deleting an absent fact is a no-op
	for k := 0; k < f.n; { // the passes' drop loop: del refills slot k
		if r := f.live[k]; f.val[r] < 100 {
			f.del(r)
		} else {
			k++
		}
	}
	if f.n != 56 {
		t.Fatalf("%d facts left, want 56 (registers 200..255)", f.n)
	}
	for r := 0; r < 256; r++ {
		if _, ok := f.get(uint8(r)); ok != (r >= 200) {
			t.Fatalf("register %d: present=%v", r, ok)
		}
	}
	if v, _ := f.get(255); v != 199 {
		t.Fatalf("get(255) = %d after overwrite", v)
	}
	f.reset()
	if _, ok := f.get(255); ok || f.n != 0 {
		t.Fatal("reset left a fact behind")
	}
	f.set(7, 1)
	if v, ok := f.get(7); !ok || v != 1 || f.n != 1 {
		t.Fatal("table unusable after reset")
	}
}

func TestPassesAtVReg255(t *testing.T) {
	const top = 255
	blk := buildBlock(t, func(b *ir.Builder) {
		b.OpI(rawisa.ADDI, top, rawisa.RegZero, 5)
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, top) // imm form from a vreg-255 fact
		b.Move(top, rawisa.RegEBX)
		b.Op3(rawisa.ADD, rawisa.RegECX, top, rawisa.RegZero) // copy through vreg 255
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: rawisa.RegEDX, Rs: top})
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: rawisa.RegESI, Rs: top}) // same address register 255
		b.ExitImm(0)
	})
	Run(blk) // every vreg-255 fact is used, its defs die, and the load hoists
	wantCode(t, blk,
		rawisa.Inst{Op: rawisa.GLW, Rd: rawisa.RegEDX, Rs: rawisa.RegEBX},
		rawisa.Inst{Op: rawisa.ADDI, Rd: rawisa.RegEAX, Rs: rawisa.RegEAX, Imm: 5},
		rawisa.Inst{Op: rawisa.ADD, Rd: rawisa.RegECX, Rs: rawisa.RegEBX},
		rawisa.Inst{Op: rawisa.OR, Rd: rawisa.RegESI, Rs: rawisa.RegEDX},
		rawisa.Inst{Op: rawisa.EXITI},
	)
}

func TestLabelAtIndexZero(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		b.Bind(b.NewLabel()) // a join at the very first instruction
		b.LoadImm(b.VReg(), 1)
		b.Emit(rawisa.Inst{Op: rawisa.NOP})
		l := b.NewLabel()
		b.EmitBranch(rawisa.Inst{Op: rawisa.BNE, Rs: rawisa.RegEAX}, l)
		b.LoadImm(b.VReg(), 2)
		b.Bind(l)
		b.ExitImm(0)
	})
	if tg := new(Scratch).targetsOf(blk); !tg[0] || !tg[4] || tg[1] {
		t.Fatalf("targets = %v", tg)
	}
	Run(blk) // the two dead loads and the NOP go; both labels move
	wantCode(t, blk,
		rawisa.Inst{Op: rawisa.BNE, Rs: rawisa.RegEAX},
		rawisa.Inst{Op: rawisa.EXITI},
	)
	if blk.LabelPos[0] != 0 || blk.LabelPos[1] != 1 {
		t.Errorf("LabelPos = %v, want [0 1]", blk.LabelPos)
	}
}

func TestDeadCodeRemarksTargets(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		l := b.NewLabel()
		b.EmitBranch(rawisa.Inst{Op: rawisa.BNE, Rs: rawisa.RegEAX}, l)
		b.LoadImm(b.VReg(), 2) // dead
		b.Bind(l)
		b.LoadImm(b.VReg(), 3) // dead, and the label sits on it
		b.ExitImm(0)
	})
	var s Scratch
	tg := s.targetsOf(blk)
	if s.deadCode(blk, tg) || len(blk.Code) != 2 {
		t.Fatalf("want both loads removed, and no fact they cut short:\n%s", blk)
	}
	if blk.LabelPos[0] != 1 || !tg[1] || tg[2] {
		t.Errorf("label moved to %d, targets %v; want the exit at 1", blk.LabelPos[0], tg[:3])
	}
}

func TestJoinDropsAliasesAndLoads(t *testing.T) {
	var a, v uint8
	blk := buildBlock(t, func(b *ir.Builder) {
		a, v = b.VReg(), b.VReg()
		skip := b.NewLabel()
		b.Move(a, rawisa.RegEBX)
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: rawisa.RegESI})
		b.EmitBranch(rawisa.Inst{Op: rawisa.BEQ, Rs: rawisa.RegEAX}, skip)
		b.Move(a, rawisa.RegECX) // a is EBX or ECX below the join
		b.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: rawisa.RegEDI, Rt: rawisa.RegEAX})
		b.Bind(skip)
		b.Op3(rawisa.ADD, rawisa.RegEDX, a, a)
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: rawisa.RegEBP, Rs: rawisa.RegESI}) // the store may have hit it
		b.Op3(rawisa.ADD, rawisa.RegEDX, rawisa.RegEDX, v)
		b.ExitImm(0)
	})
	var s Scratch
	tg := s.targetsOf(blk)
	s.copyProp(blk, tg)
	s.redundantLoads(blk, tg)
	if in := blk.Code[5]; in.Rs != a || in.Rt != a {
		t.Errorf("alias survived the join: %v", in.Inst)
	}
	if in := blk.Code[6]; in.Op != rawisa.GLW {
		t.Errorf("load forwarded across the join: %v", in.Inst)
	}
}

func TestSyscallAndAssistClobberPhysicalOnly(t *testing.T) {
	for _, trap := range []rawisa.Inst{{Op: rawisa.SYSC}, {Op: rawisa.ASSIST, Imm: 0x1000}} {
		var v, c uint8
		blk := buildBlock(t, func(b *ir.Builder) {
			v, c = b.VReg(), b.VReg() // v is FirstVReg: the first register a trap leaves alone
			b.LoadImm(v, 7)
			b.LoadImm(rawisa.RegLink, 9) // r31: the last one it clobbers
			b.Move(c, v)
			b.Emit(trap)
			b.Op3(rawisa.ADD, rawisa.RegEBX, v, rawisa.RegZero)
			b.Op3(rawisa.ADD, rawisa.RegECX, rawisa.RegLink, rawisa.RegZero)
			b.Op3(rawisa.XOR, rawisa.RegEDX, c, rawisa.RegEDX)
			b.ExitImm(0)
		})
		if v != ir.FirstVReg {
			t.Fatalf("first vreg = %d", v)
		}
		var s Scratch
		tg := s.targetsOf(blk)
		s.copyProp(blk, tg)
		if in := blk.Code[6]; in.Rs != v {
			t.Errorf("%v: vreg alias dropped: %v", trap.Op, in.Inst)
		}
		s.constFold(blk, tg)
		if in := blk.Code[4].Inst; in != (rawisa.Inst{Op: rawisa.ADDI, Rd: rawisa.RegEBX, Imm: 7}) {
			t.Errorf("%v: vreg constant lost: %v", trap.Op, in)
		}
		if in := blk.Code[5]; in.Op != rawisa.ADD || in.Rs != rawisa.RegLink {
			t.Errorf("%v: r31 constant survived: %v", trap.Op, in.Inst)
		}
	}
}

func TestAliasChainSourceRedefined(t *testing.T) {
	var a, b2, c uint8
	blk := buildBlock(t, func(b *ir.Builder) {
		a, b2, c = b.VReg(), b.VReg(), b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: b2, Rs: rawisa.RegESI})
		b.Move(a, b2)                                        // a <- b
		b.Move(c, a)                                         // c <- a, recorded as c <- b
		b.Op3(rawisa.ADD, rawisa.RegEAX, a, c)               // both read b
		b.OpI(rawisa.ADDI, b2, b2, 1)                        // b redefined: a and c keep the old value
		b.Op3(rawisa.ADD, rawisa.RegEBX, a, c)               // must still read a and c
		b.Op3(rawisa.ADD, rawisa.RegECX, b2, rawisa.RegZero) // and this the new b
		b.ExitImm(0)
	})
	var s Scratch
	s.copyProp(blk, s.targetsOf(blk))
	if in := blk.Code[3]; in.Rs != b2 || in.Rt != b2 {
		t.Errorf("chain not resolved to its root: %v", in.Inst)
	}
	if in := blk.Code[5]; in.Rs != a || in.Rt != c {
		t.Errorf("stale alias used after its source was redefined: %v", in.Inst)
	}
	if in := blk.Code[6]; in.Rs != b2 {
		t.Errorf("redefined source rewritten: %v", in.Inst)
	}
}
