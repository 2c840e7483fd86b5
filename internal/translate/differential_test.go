package translate

import (
	"fmt"
	"math/rand"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
	"tilevm/internal/x86"
	"tilevm/internal/x86interp"
)

// runDBT executes a guest image through the translation pipeline with a
// minimal dispatch loop (translate-on-miss, flat memory env). With
// tier0 set, every block goes through the tier-0 template path first,
// falling back to the optimizing pipeline on template misses — the same
// dispatch rule the engine uses.
func runDBT(t *testing.T, img *guest.Image, opts Options, tier0 bool, maxBlocks int) (*guest.Process, error) {
	t.Helper()
	p := guest.Load(img)
	clk := &rawexec.CountClock{}
	env := rawexec.NewFlatEnv(p, clk)
	cpu := &rawexec.CPU{}
	cpu.LoadGuest(&p.CPU)
	tr := New(opts)
	cache := map[uint32]*Result{}
	pc := p.PC
	for i := 0; i < maxBlocks && !p.Kern.Exited; i++ {
		res, ok := cache[pc]
		if !ok {
			var err error
			res, err = tr.TranslateTier(p.Mem, pc, tier0)
			if err != nil {
				return p, err
			}
			cache[pc] = res
			env.RegisterCodePages(res.GuestAddr, res.GuestLen)
		}
		// Keep the interpreter-visible state in sync for assists.
		exit, err := rawexec.Exec(cpu, res.Code, 0, clk, env, 10_000_000)
		if err != nil {
			return p, fmt.Errorf("exec of block %#x: %w\n%s", pc, err, rawisa.Disassemble(res.Code))
		}
		if env.SMCPending {
			// Self-modifying code: drop every cached translation.
			cache = map[uint32]*Result{}
			env.SMCPending = false
		}
		pc = exit.NextPC
	}
	cpu.StoreGuest(&p.CPU)
	p.PC = pc
	if !p.Kern.Exited {
		return p, fmt.Errorf("did not exit after %d blocks (pc=%#x)", maxBlocks, pc)
	}
	return p, nil
}

// differential runs the image on both executors and compares final
// architectural state.
func differential(t *testing.T, img *guest.Image, opts Options, tier0 bool) {
	t.Helper()
	ref := guest.Load(img)
	refIt := x86interp.New(ref)
	if exited, err := refIt.Run(5_000_000); err != nil || !exited {
		t.Fatalf("reference run failed: %v exited=%v (%s)", err, exited, ref.CPU.String())
	}
	got, err := runDBT(t, img, opts, tier0, 500_000)
	if err != nil {
		t.Fatalf("DBT run failed: %v", err)
	}
	if got.Kern.ExitCode != ref.Kern.ExitCode {
		t.Errorf("exit code: DBT %d, ref %d", got.Kern.ExitCode, ref.Kern.ExitCode)
	}
	for r := x86.EAX; r <= x86.EDI; r++ {
		if got.Reg(r) != ref.Reg(r) {
			t.Errorf("%s: DBT %#x, ref %#x", r.Name(4), got.Reg(r), ref.Reg(r))
		}
	}
	if gs, rs := got.Kern.Stdout.String(), ref.Kern.Stdout.String(); gs != rs {
		t.Errorf("stdout: DBT %q, ref %q", gs, rs)
	}
	if t.Failed() {
		t.Logf("DBT state: %s", got.CPU.String())
		t.Logf("ref state: %s", ref.CPU.String())
	}
}

func image(build func(a *x86.Asm)) *guest.Image {
	a := x86.NewAsm(guest.DefaultCodeBase)
	build(a)
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

func exitWith(a *x86.Asm) {
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
}

// allOpts runs a subtest under every translation configuration,
// including the tier-0 template path (with its optimizing-tier
// fallback), so the whole corpus exercises both tiers.
func allOpts(t *testing.T, img *guest.Image) {
	for _, cfg := range []struct {
		name  string
		o     Options
		tier0 bool
	}{
		{"opt", Options{Optimize: true}, false},
		{"noopt", Options{}, false},
		{"conservative", Options{ConservativeFlags: true}, false},
		{"opt+conservative", Options{Optimize: true, ConservativeFlags: true}, false},
		{"tier0", Options{Optimize: true}, true},
		{"tier0+conservative", Options{Optimize: true, ConservativeFlags: true}, true},
	} {
		t.Run(cfg.name, func(t *testing.T) { differential(t, img, cfg.o, cfg.tier0) })
	}
}

func TestDiffArithLoop(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EBX, 0)
		a.MovRegImm(x86.ECX, 100)
		a.Label("loop")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.ALU(x86.XOR, x86.RegOp(x86.EBX, 4), x86.ImmOp(0x5a5a, 4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "loop")
		exitWith(a)
	}))
}

func TestDiffFactorial(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.PushImm(7)
		a.Call("fact")
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.MovRegReg(x86.EBX, x86.EAX)
		exitWith(a)
		a.Label("fact")
		a.Push(x86.EBP)
		a.MovRegReg(x86.EBP, x86.ESP)
		a.MovRegMem(x86.EAX, x86.Mem(x86.EBP, 8))
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.ImmOp(1, 4))
		a.Jcc(x86.CondLE, "base")
		a.DecReg(x86.EAX)
		a.Push(x86.EAX)
		a.Call("fact")
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.IMulRegRM(x86.EAX, x86.Mem(x86.EBP, 8))
		a.Jmp("done")
		a.Label("base")
		a.MovRegImm(x86.EAX, 1)
		a.Label("done")
		a.Pop(x86.EBP)
		a.Ret()
	}))
}

func TestDiffCarryChains(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		// 64-bit arithmetic with ADC/SBB over several limbs.
		a.MovRegImm(x86.EAX, 0xfffffffe)
		a.MovRegImm(x86.EDX, 0x7fffffff)
		a.ALU(x86.ADD, x86.RegOp(x86.EAX, 4), x86.ImmOp(5, 4))
		a.ALU(x86.ADC, x86.RegOp(x86.EDX, 4), x86.ImmOp(0, 4))
		a.MovRegImm(x86.ESI, 3)
		a.ALU(x86.SUB, x86.RegOp(x86.EAX, 4), x86.RegOp(x86.ESI, 4))
		a.ALU(x86.SBB, x86.RegOp(x86.EDX, 4), x86.ImmOp(0, 4))
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		a.Setcc(x86.CondO, x86.RegOp(x86.ECX, 1))
		exitWith(a)
	}))
}

func TestDiffShifts(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x80000123)
		a.MovRegImm(x86.EBX, 0)
		for _, c := range []uint8{1, 4, 31} {
			a.ShiftImm(x86.SHL, x86.RegOp(x86.EAX, 4), c)
			a.Setcc(x86.CondB, x86.RegOp(x86.EDX, 1)) // capture CF
			a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EDX, 4))
			a.ShiftImm(x86.SAR, x86.RegOp(x86.EAX, 4), c)
			a.Setcc(x86.CondS, x86.RegOp(x86.EDX, 1))
			a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EDX, 4))
		}
		// Shift by CL, including a zero count (flags must survive).
		a.MovRegImm(x86.EAX, 0xdead)
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.RegOp(x86.EAX, 4)) // ZF=1
		a.MovRegImm(x86.ECX, 0)
		a.ShiftCL(x86.SHR, x86.RegOp(x86.EAX, 4))
		a.Setcc(x86.CondE, x86.RegOp(x86.ESI, 1)) // ZF still set
		a.MovRegImm(x86.ECX, 7)
		a.ShiftCL(x86.SHL, x86.RegOp(x86.EAX, 4))
		a.Setcc(x86.CondB, x86.RegOp(x86.EDI, 1))
		exitWith(a)
	}))
}

func TestDiffRotates(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x80000001)
		a.ShiftImm(x86.ROL, x86.RegOp(x86.EAX, 4), 3)
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		a.ShiftImm(x86.ROR, x86.RegOp(x86.EAX, 4), 5)
		a.Setcc(x86.CondB, x86.RegOp(x86.ECX, 1))
		exitWith(a)
	}))
}

func TestDiffMemoryPatterns(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, base)
		a.MovRegImm(x86.ECX, 64)
		a.MovRegImm(x86.EAX, 12345)
		a.Label("fill")
		a.MovMemReg(x86.MemIdx(x86.ESI, x86.ECX, 4, -4), x86.EAX)
		a.ALU(x86.ADD, x86.RegOp(x86.EAX, 4), x86.ImmOp(7, 4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "fill")
		// Sum it back.
		a.MovRegImm(x86.EBX, 0)
		a.MovRegImm(x86.ECX, 64)
		a.Label("sum")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.MemIdx(x86.ESI, x86.ECX, 4, -4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "sum")
		// Byte and halfword traffic.
		a.MovMemReg8(x86.Mem(x86.ESI, 3), x86.EBX)
		a.Movzx8(x86.EDX, x86.Mem(x86.ESI, 3))
		a.Movsx8(x86.EDI, x86.Mem(x86.ESI, 3))
		exitWith(a)
	}))
}

func TestDiffSubRegisters(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x11223344)
		// AH/AL manipulation: AL += 0xCC (carry into nothing), AH ^= AL.
		a.ALU(x86.ADD, x86.RegOp(x86.EAX, 1), x86.ImmOp(0x7f, 1))
		a.Setcc(x86.CondO, x86.RegOp(x86.EBX, 1))
		// 8-bit reg-to-reg through memory.
		a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
		a.MovMemReg8(x86.Mem(x86.ESI, 0), x86.EAX) // AL
		a.Movzx8(x86.ECX, x86.Mem(x86.ESI, 0))
		exitWith(a)
	}))
}

func TestDiffMulDivAssist(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x10000)
		a.MovRegImm(x86.ECX, 0x30000)
		a.MulRM(x86.RegOp(x86.ECX, 4)) // wide product
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		a.MovRegReg(x86.ESI, x86.EDX)
		a.MovRegImm(x86.ECX, 77777)
		a.DivRM(x86.RegOp(x86.ECX, 4))
		a.MovRegReg(x86.EDI, x86.EDX) // remainder
		// Signed divide via assist.
		a.MovRegImm(x86.EAX, 0)
		a.ALU(x86.SUB, x86.RegOp(x86.EAX, 4), x86.ImmOp(1000000, 4))
		a.Cdq()
		a.MovRegImm(x86.ECX, 3333)
		a.IDivRM(x86.RegOp(x86.ECX, 4))
		exitWith(a)
	}))
}

func TestDiffStringOpsAssist(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		src := uint32(guest.DefaultHeapBase)
		a.Cld()
		a.MovRegImm(x86.EDI, src)
		a.MovRegImm(x86.EAX, 0xa5a5a5a5)
		a.MovRegImm(x86.ECX, 32)
		a.RepStosd()
		a.MovRegImm(x86.ESI, src)
		a.MovRegImm(x86.EDI, src+0x800)
		a.MovRegImm(x86.ECX, 32)
		a.RepMovsd()
		a.MovRegImm(x86.ESI, src+0x800)
		a.MovRegMem(x86.EBX, x86.Mem(x86.ESI, 124))
		exitWith(a)
	}))
}

func TestDiffCmovSetccMatrix(t *testing.T) {
	// Exercise every condition code via CMP + SETcc.
	allOpts(t, image(func(a *x86.Asm) {
		pairs := [][2]uint32{{5, 3}, {3, 5}, {7, 7}, {0x80000000, 1}, {1, 0x80000000}}
		a.MovRegImm(x86.EBX, 0)
		for _, pr := range pairs {
			for c := x86.Cond(0); c < 16; c++ {
				a.MovRegImm(x86.EAX, pr[0])
				a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.ImmOp(int32(pr[1]), 4))
				a.MovRegImm(x86.EDX, 0)
				a.Setcc(c, x86.RegOp(x86.EDX, 1))
				a.ShiftImm(x86.SHL, x86.RegOp(x86.EBX, 4), 1)
				a.ALU(x86.XOR, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EDX, 4))
			}
		}
		exitWith(a)
	}))
}

func TestDiffJumpTable(t *testing.T) {
	build := func(c0, c1, c2 uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		tbl := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, tbl)
		a.MovMemImm(x86.Mem(x86.ESI, 0), c0)
		a.MovMemImm(x86.Mem(x86.ESI, 4), c1)
		a.MovMemImm(x86.Mem(x86.ESI, 8), c2)
		a.MovRegImm(x86.EBX, 0)
		a.MovRegImm(x86.EDI, 0) // case selector
		a.Label("loop")
		a.JmpMem(x86.MemIdx(x86.ESI, x86.EDI, 4, 0))
		a.Label("case0")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(1, 4))
		a.Jmp("next")
		a.Label("case1")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(100, 4))
		a.Jmp("next")
		a.Label("case2")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(10000, 4))
		a.Label("next")
		a.IncReg(x86.EDI)
		a.ALU(x86.CMP, x86.RegOp(x86.EDI, 4), x86.ImmOp(3, 4))
		a.Jcc(x86.CondL, "loop")
		exitWith(a)
		a.Bytes()
		return a
	}
	p1 := build(0, 0, 0)
	a := build(p1.LabelAddr("case0"), p1.LabelAddr("case1"), p1.LabelAddr("case2"))
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	allOpts(t, img)
}

func TestDiffSyscalls(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		msg := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, msg)
		a.MovMemImm(x86.Mem(x86.ESI, 0), 0x21494821) // "!HI!"
		a.MovRegImm(x86.EAX, 4)
		a.MovRegImm(x86.EBX, 1)
		a.MovRegReg(x86.ECX, x86.ESI)
		a.MovRegImm(x86.EDX, 4)
		a.Int(0x80)
		a.MovRegImm(x86.EAX, 45) // brk(0)
		a.MovRegImm(x86.EBX, 0)
		a.Int(0x80)
		a.MovRegReg(x86.EBX, x86.EAX)
		exitWith(a)
	}))
}

// TestDiffRandomPrograms drives the pipeline with seeded random
// straight-line programs mixing ALU ops, sub-register writes, memory
// traffic, and flag consumers, comparing final state with the
// reference interpreter.
func TestDiffRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			img := randomProgram(seed, 120)
			allOpts(t, img)
		})
	}
}

func randomProgram(seed int64, n int) *guest.Image {
	r := rand.New(rand.NewSource(seed))
	a := x86.NewAsm(guest.DefaultCodeBase)
	// Registers EAX..EDI except ESP are fair game; ESI anchors memory.
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.EBP, x86.EDI}
	reg := func() x86.Reg { return regs[r.Intn(len(regs))] }
	a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
	for _, rg := range regs {
		a.MovRegImm(rg, r.Uint32())
	}
	aluOps := []x86.Op{x86.ADD, x86.SUB, x86.ADC, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP}
	for i := 0; i < n; i++ {
		switch r.Intn(13) {
		case 0, 1, 2, 3: // reg-reg / reg-imm ALU
			op := aluOps[r.Intn(len(aluOps))]
			if r.Intn(2) == 0 {
				a.ALU(op, x86.RegOp(reg(), 4), x86.RegOp(reg(), 4))
			} else {
				a.ALU(op, x86.RegOp(reg(), 4), x86.ImmOp(int32(r.Uint32()), 4))
			}
		case 4: // memory store
			a.MovMemReg(x86.Mem(x86.ESI, int32(r.Intn(1024))*4), reg())
		case 5: // memory load
			a.MovRegMem(reg(), x86.Mem(x86.ESI, int32(r.Intn(1024))*4))
		case 6: // RMW on memory
			a.ALU(x86.ADD, x86.Mem(x86.ESI, int32(r.Intn(1024))*4), x86.RegOp(reg(), 4))
		case 7: // shift
			ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
			a.ShiftImm(ops[r.Intn(len(ops))], x86.RegOp(reg(), 4), uint8(1+r.Intn(31)))
		case 8: // setcc / cmov flag consumers
			c := x86.Cond(r.Intn(16))
			if r.Intn(2) == 0 {
				a.Setcc(c, x86.RegOp(reg(), 1))
			} else {
				a.Cmovcc(c, reg(), x86.RegOp(reg(), 4))
			}
		case 9: // inc/dec/neg/not
			switch r.Intn(4) {
			case 0:
				a.IncReg(reg())
			case 1:
				a.DecReg(reg())
			case 2:
				a.Neg(x86.RegOp(reg(), 4))
			case 3:
				a.Not(x86.RegOp(reg(), 4))
			}
		case 10: // sub-register ops
			if r.Intn(2) == 0 {
				a.ALU(x86.ADD, x86.RegOp(reg(), 1), x86.ImmOp(int32(r.Intn(256)), 1))
			} else {
				a.MovMemReg8(x86.Mem(x86.ESI, int32(r.Intn(4096))), reg())
			}
		case 11: // imul or test
			if r.Intn(2) == 0 {
				a.IMulRegRMImm(reg(), x86.RegOp(reg(), 4), int32(r.Intn(1<<16))-1<<15)
			} else {
				a.Test(x86.RegOp(reg(), 4), reg())
			}
		case 12: // extended ops: bit tests, double shifts, scans, atomics
			switch r.Intn(6) {
			case 0:
				ops := []x86.Op{x86.BT, x86.BTS, x86.BTR, x86.BTC}
				a.BtImm(ops[r.Intn(4)], x86.RegOp(reg(), 4), uint8(r.Intn(32)))
			case 1:
				op := x86.SHLD
				if r.Intn(2) == 0 {
					op = x86.SHRD
				}
				a.ShiftDoubleImm(op, x86.RegOp(reg(), 4), reg(), uint8(1+r.Intn(31)))
			case 2:
				if r.Intn(2) == 0 {
					a.Bsf(reg(), x86.RegOp(reg(), 4))
				} else {
					a.Bsr(reg(), x86.RegOp(reg(), 4))
				}
			case 3:
				a.Xadd(x86.Mem(x86.ESI, int32(r.Intn(1024))*4), reg())
			case 4:
				op := x86.RCL
				if r.Intn(2) == 0 {
					op = x86.RCR
				}
				a.ShiftImm(op, x86.RegOp(reg(), 4), uint8(1+r.Intn(31)))
			case 5:
				a.Cmpxchg(x86.Mem(x86.ESI, int32(r.Intn(1024))*4), reg())
			}
		}
	}
	// Fold all registers into EBX so every difference shows.
	for _, rg := range regs {
		if rg != x86.EBX {
			a.ALU(x86.XOR, x86.RegOp(x86.EBX, 4), x86.RegOp(rg, 4))
		}
	}
	exitWith(a)
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

// TestDiffSelfModifyingCode overwrites an instruction's immediate and
// re-executes it: the SMC detector must invalidate the stale
// translation so the second pass sees the new bytes (paper §5: the
// prototype detects writes to translated code pages).
func TestDiffSelfModifyingCode(t *testing.T) {
	build := func(patchAddr uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDX, 0)
		a.Label("top")
		a.Label("patch")
		a.MovRegImm(x86.EBX, 1) // B8+3: 5 bytes; imm at patch+1
		a.ALU(x86.CMP, x86.RegOp(x86.EDX, 4), x86.ImmOp(1, 4))
		a.Jcc(x86.CondE, "done")
		a.IncReg(x86.EDX)
		a.MovRegImm(x86.ESI, patchAddr+1)
		a.MovRegImm(x86.EAX, 99)
		a.MovMemReg8(x86.Mem(x86.ESI, 0), x86.EAX) // patch the immediate
		a.Jmp("top")
		a.Label("done")
		exitWith(a)
		a.Bytes()
		return a
	}
	p1 := build(0)
	a := build(p1.LabelAddr("patch"))
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}

	// Reference semantics check: the second pass must see 99.
	ref := guest.Load(img)
	if exited, err := x86interp.New(ref).Run(100000); err != nil || !exited {
		t.Fatalf("reference: %v exited=%v", err, exited)
	}
	if ref.Kern.ExitCode != 99 {
		t.Fatalf("reference exit = %d, want 99 (test program broken)", ref.Kern.ExitCode)
	}
	allOpts(t, img)
}

func TestDiffExtendedOpsBitTest(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x00010004)
		a.MovRegImm(x86.EBX, 0)
		a.BtImm(x86.BT, x86.RegOp(x86.EAX, 4), 2) // CF=1
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		a.BtImm(x86.BTS, x86.RegOp(x86.EAX, 4), 7)
		a.BtImm(x86.BTR, x86.RegOp(x86.EAX, 4), 16)
		a.BtImm(x86.BTC, x86.RegOp(x86.EAX, 4), 31)
		// Register bit offset with wrap.
		a.MovRegImm(x86.ECX, 34) // bit 2 mod 32
		a.BtReg(x86.BT, x86.RegOp(x86.EAX, 4), x86.ECX)
		a.Setcc(x86.CondB, x86.RegOp(x86.EDX, 1))
		// Memory form with bit-string addressing.
		a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
		a.MovMemImm(x86.Mem(x86.ESI, 8), 0x80000000)
		a.MovRegImm(x86.ECX, 95) // word 2, bit 31
		a.BtReg(x86.BTS, x86.Mem(x86.ESI, 0), x86.ECX)
		a.Setcc(x86.CondB, x86.RegOp(x86.EDI, 1))
		exitWith(a)
	}))
}

func TestDiffExtendedOpsShiftDouble(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x12345678)
		a.MovRegImm(x86.EDX, 0x9abcdef0)
		a.ShiftDoubleImm(x86.SHLD, x86.RegOp(x86.EAX, 4), x86.EDX, 12)
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		a.ShiftDoubleImm(x86.SHRD, x86.RegOp(x86.EDX, 4), x86.EAX, 5)
		a.Setcc(x86.CondS, x86.RegOp(x86.ECX, 1))
		// CL forms including a zero count (flags preserved).
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.RegOp(x86.EAX, 4)) // ZF=1
		a.MovRegImm(x86.ECX, 0)
		a.ShiftDoubleCL(x86.SHLD, x86.RegOp(x86.EAX, 4), x86.EDX)
		a.Setcc(x86.CondE, x86.RegOp(x86.ESI, 1)) // still ZF
		a.MovRegImm(x86.ECX, 9)
		a.ShiftDoubleCL(x86.SHRD, x86.RegOp(x86.EAX, 4), x86.EDX)
		exitWith(a)
	}))
}

func TestDiffExtendedOpsBitScan(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x00ff0000)
		a.Bsf(x86.EBX, x86.RegOp(x86.EAX, 4)) // 16
		a.Bsr(x86.ECX, x86.RegOp(x86.EAX, 4)) // 23
		a.MovRegImm(x86.EDX, 0)
		a.MovRegImm(x86.EDI, 0x1234)
		a.Bsf(x86.EDI, x86.RegOp(x86.EDX, 4)) // src 0: ZF, EDI unchanged
		a.Setcc(x86.CondE, x86.RegOp(x86.EDX, 1))
		exitWith(a)
	}))
}

func TestDiffExtendedOpsAtomics(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, base)
		a.MovMemImm(x86.Mem(x86.ESI, 0), 100)
		// CMPXCHG success path.
		a.MovRegImm(x86.EAX, 100)
		a.MovRegImm(x86.EBX, 777)
		a.Cmpxchg(x86.Mem(x86.ESI, 0), x86.EBX)
		a.Setcc(x86.CondE, x86.RegOp(x86.ECX, 1))
		// CMPXCHG failure path: EAX reloaded.
		a.MovRegImm(x86.EAX, 5)
		a.Cmpxchg(x86.Mem(x86.ESI, 0), x86.EBX)
		a.Setcc(x86.CondNE, x86.RegOp(x86.EDX, 1))
		// XADD.
		a.MovRegImm(x86.EDI, 11)
		a.Xadd(x86.Mem(x86.ESI, 0), x86.EDI)
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.Mem(x86.ESI, 0))
		exitWith(a)
	}))
}

func TestDiffExtendedOpsRotateCarry(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x80000001)
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.RegOp(x86.EAX, 4)) // CF=0
		a.ShiftImm(x86.RCL, x86.RegOp(x86.EAX, 4), 1)
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1)) // CF from old msb
		a.ShiftImm(x86.RCR, x86.RegOp(x86.EAX, 4), 3)
		a.Setcc(x86.CondB, x86.RegOp(x86.ECX, 1))
		a.MovRegImm(x86.ECX, 5)
		a.ShiftCL(x86.RCL, x86.RegOp(x86.EAX, 4))
		exitWith(a)
	}))
}

func TestDiffExtendedOpsCwdeAndStrings(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x0000ffff)
		a.Cwde() // EAX = -1
		a.MovRegReg(x86.EBX, x86.EAX)
		// REPE CMPSD over equal buffers, then unequal ones.
		base := uint32(guest.DefaultHeapBase)
		a.Cld()
		a.MovRegImm(x86.EDI, base)
		a.MovRegImm(x86.EAX, 0x41414141)
		a.MovRegImm(x86.ECX, 8)
		a.RepStosd()
		a.MovRegImm(x86.EDI, base+0x100)
		a.MovRegImm(x86.ECX, 8)
		a.RepStosd()
		a.MovMemImm(x86.Mem(x86.EDI, -8), 0x42424242) // make word 6 differ
		a.MovRegImm(x86.ESI, base)
		a.MovRegImm(x86.EDI, base+0x100)
		a.MovRegImm(x86.ECX, 8)
		a.RepeCmpsd()
		a.Setcc(x86.CondNE, x86.RegOp(x86.EDX, 1))
		a.MovRegReg(x86.EDI, x86.ECX) // remaining count is architectural
		exitWith(a)
	}))
}

func TestDiffExtendedOpsScasb(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		// strlen via REPNE SCASB.
		a.MovRegImm(x86.ESI, base)
		a.MovMemImm(x86.Mem(x86.ESI, 0), 0x6c6c6568) // "hell"
		a.MovMemImm(x86.Mem(x86.ESI, 4), 0x0000006f) // "o\0"
		a.Cld()
		a.MovRegImm(x86.EDI, base)
		a.MovRegImm(x86.EAX, 0)
		a.MovRegImm(x86.ECX, 0xffff)
		a.RepneScasb()
		a.Not(x86.RegOp(x86.ECX, 4))
		a.DecReg(x86.ECX)
		a.MovRegReg(x86.EBX, x86.ECX) // strlen = 5
		exitWith(a)
	}))
}

// TestDiff16BitOps exercises the 0x66 operand-size prefix paths:
// 16-bit arithmetic merges into the low half of the register and flags
// come from 16-bit semantics.
func TestDiff16BitOps(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		// mov ax, 0x8000  (66 B8 00 80)
		a.Raw(0x66, 0xB8, 0x00, 0x80)
		a.MovRegImm(x86.EBX, 0x11110000)
		// add bx, ax  (66 01 C3): 0x0000+0x8000, SF set
		a.Raw(0x66, 0x01, 0xC3)
		a.Setcc(x86.CondS, x86.RegOp(x86.ECX, 1))
		// add ax, ax (66 01 C0): 0x8000+0x8000 = 0 with carry+overflow
		a.Raw(0x66, 0x01, 0xC0)
		a.Setcc(x86.CondB, x86.RegOp(x86.EDX, 1))
		a.Setcc(x86.CondO, x86.RegOp(x86.ESI, 1))
		a.Setcc(x86.CondE, x86.RegOp(x86.EDI, 1))
		// inc/dec at 16 bits (66 40, 66 48) preserve the upper half.
		a.MovRegImm(x86.EAX, 0xABCD0001)
		a.Raw(0x66, 0x48) // dec ax -> 0xABCD0000, ZF
		a.Raw(0x66, 0x48) // dec ax -> 0xABCDFFFF (16-bit wrap)
		exitWith(a)
	}))
}

func TestDiff16BitMemory(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, base)
		a.MovRegImm(x86.EAX, 0x1234ABCD)
		// mov [esi], ax   (66 89 06)
		a.Raw(0x66, 0x89, 0x06)
		// mov bx, [esi]   (66 8B 1E)
		a.MovRegImm(x86.EBX, 0xFFFF0000)
		a.Raw(0x66, 0x8B, 0x1E)
		// movzx/movsx from the 16-bit cell.
		a.Raw(0x0F, 0xB7, 0x0E) // movzx ecx, word [esi]
		a.Raw(0x0F, 0xBF, 0x16) // movsx edx, word [esi]
		exitWith(a)
	}))
}

// TestDiffMovMoffs exercises the accumulator moves to and from an
// absolute offset (0xA0–0xA3, 0x66 for 16 bits): stores and loads at
// 8, 16 and 32 bits through one heap cell.
func TestDiffMovMoffs(t *testing.T) {
	moffs := func(a *x86.Asm, op ...byte) {
		a.Raw(op...)
		a.Word32(guest.DefaultHeapBase)
	}
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x89ABCDEF)
		moffs(a, 0xA3) // mov [cell], eax
		a.MovRegImm(x86.EAX, 0x11223344)
		moffs(a, 0x66, 0xA3) // mov [cell], ax: cell = 0x89AB3344
		a.MovRegImm(x86.EAX, 0x55)
		moffs(a, 0xA2) // mov [cell], al: cell = 0x89AB3355
		a.MovRegImm(x86.EAX, 0xFFFFFFFF)
		moffs(a, 0xA0) // mov al, [cell]: eax = 0xFFFFFF55
		a.MovRegReg(x86.ESI, x86.EAX)
		moffs(a, 0x66, 0xA1) // mov ax, [cell]: eax = 0xFFFF3355
		a.MovRegReg(x86.EDI, x86.EAX)
		moffs(a, 0xA1) // mov eax, [cell]: eax = 0x89AB3355
		a.MovRegReg(x86.EBX, x86.EAX)
		exitWith(a)
	}))
}

func TestDiff16BitShifts(t *testing.T) {
	allOpts(t, image(func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x5555C001)
		// shl ax, 1 (66 D1 E0): CF from bit 15
		a.Raw(0x66, 0xD1, 0xE0)
		a.Setcc(x86.CondB, x86.RegOp(x86.EBX, 1))
		// sar ax, 4 (66 C1 F8 04)
		a.Raw(0x66, 0xC1, 0xF8, 0x04)
		a.Setcc(x86.CondS, x86.RegOp(x86.ECX, 1))
		// shr ax, 8 (66 C1 E8 08)
		a.Raw(0x66, 0xC1, 0xE8, 0x08)
		exitWith(a)
	}))
}
