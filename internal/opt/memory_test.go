package opt

import (
	"testing"

	"tilevm/internal/ir"
	"tilevm/internal/rawisa"
)

func TestRedundantLoadEliminated(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		addr := b.VReg()
		b.LoadImm(addr, 0x2000)
		v1 := b.VReg()
		v2 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v1, Rs: addr})
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v2, Rs: addr}) // redundant
		b.Op3(rawisa.ADD, rawisa.RegEAX, v1, v2)
		b.ExitImm(0)
	})
	Run(blk)
	if n := countOp(blk, rawisa.GLW); n != 1 {
		t.Errorf("loads remaining = %d, want 1:\n%s", n, blk.String())
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		addr := b.VReg()
		b.LoadImm(addr, 0x2000)
		b.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: addr, Rt: rawisa.RegECX})
		v := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: addr}) // forwarded
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		b.ExitImm(0)
	})
	Run(blk)
	if n := countOp(blk, rawisa.GLW); n != 0 {
		t.Errorf("forwardable load survived:\n%s", blk.String())
	}
	if n := countOp(blk, rawisa.GSW); n != 1 {
		t.Errorf("store must remain:\n%s", blk.String())
	}
}

func TestStoreInvalidatesLoads(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		a1 := b.VReg()
		a2 := b.VReg()
		b.LoadImm(a1, 0x2000)
		b.LoadImm(a2, 0x3000)
		v1 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v1, Rs: a1})
		b.Emit(rawisa.Inst{Op: rawisa.GSW, Rs: a2, Rt: rawisa.RegECX}) // may alias
		v2 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v2, Rs: a1}) // must reload
		b.Op3(rawisa.ADD, rawisa.RegEAX, v1, v2)
		b.ExitImm(0)
	})
	Run(blk)
	if n := countOp(blk, rawisa.GLW); n != 2 {
		t.Errorf("load across store removed (loads=%d):\n%s", n, blk.String())
	}
}

func TestAddressRedefInvalidates(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		addr := b.VReg()
		b.LoadImm(addr, 0x2000)
		v1 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v1, Rs: addr})
		b.OpI(rawisa.ADDI, addr, addr, 4) // address moves
		v2 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v2, Rs: addr})
		b.Op3(rawisa.ADD, rawisa.RegEAX, v1, v2)
		b.ExitImm(0)
	})
	Run(blk)
	if n := countOp(blk, rawisa.GLW); n != 2 {
		t.Errorf("load after address change removed:\n%s", blk.String())
	}
}

func TestMismatchedWidthNotEliminated(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		addr := b.VReg()
		b.LoadImm(addr, 0x2000)
		v1 := b.VReg()
		v2 := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v1, Rs: addr})
		b.Emit(rawisa.Inst{Op: rawisa.GLB, Rd: v2, Rs: addr}) // different op
		b.Op3(rawisa.ADD, rawisa.RegEAX, v1, v2)
		b.ExitImm(0)
	})
	Run(blk)
	if countOp(blk, rawisa.GLB) != 1 {
		t.Errorf("different-width load eliminated:\n%s", blk.String())
	}
}

func TestHoistLoadsAboveALU(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		// Unrelated ALU work, then a load immediately used.
		b.OpI(rawisa.ADDI, rawisa.RegEBX, rawisa.RegEBX, 1)
		b.OpI(rawisa.ADDI, rawisa.RegECX, rawisa.RegECX, 2)
		v := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: rawisa.RegESI})
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		b.ExitImm(0)
	})
	hoistLoads(blk, labelTargets(blk, make([]bool, len(blk.Code)+1)))
	if !blk.Code[0].Op.IsGuestLoad() {
		t.Errorf("load not hoisted to the top:\n%s", blk.String())
	}
	if err := blk.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHoistStopsAtDependency(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		addr := b.VReg()
		b.OpI(rawisa.ADDI, addr, rawisa.RegESI, 8) // defines the address
		v := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: addr})
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		b.ExitImm(0)
	})
	hoistLoads(blk, labelTargets(blk, make([]bool, len(blk.Code)+1)))
	if blk.Code[0].Op.IsGuestLoad() {
		t.Errorf("load hoisted above its address computation:\n%s", blk.String())
	}
}

func TestHoistStopsAtLabel(t *testing.T) {
	blk := buildBlock(t, func(b *ir.Builder) {
		skip := b.NewLabel()
		b.EmitBranch(rawisa.Inst{Op: rawisa.BEQ, Rs: rawisa.RegEAX, Rt: 0}, skip)
		b.OpI(rawisa.ADDI, rawisa.RegEBX, rawisa.RegEBX, 1)
		b.Bind(skip)
		b.OpI(rawisa.ADDI, rawisa.RegECX, rawisa.RegECX, 1)
		v := b.VReg()
		b.Emit(rawisa.Inst{Op: rawisa.GLW, Rd: v, Rs: rawisa.RegESI})
		b.Op3(rawisa.ADD, rawisa.RegEAX, rawisa.RegEAX, v)
		b.ExitImm(0)
	})
	labelPos := blk.LabelPos[0]
	hoistLoads(blk, labelTargets(blk, make([]bool, len(blk.Code)+1)))
	// The load may rise to the label position but not above it.
	for i := 0; i < labelPos; i++ {
		if blk.Code[i].Op.IsGuestLoad() {
			t.Errorf("load crossed a branch join:\n%s", blk.String())
		}
	}
	if err := blk.Validate(); err != nil {
		t.Fatal(err)
	}
}
