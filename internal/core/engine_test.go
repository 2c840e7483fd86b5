package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
	"tilevm/internal/x86interp"
)

func image(build func(a *x86.Asm)) *guest.Image {
	a := x86.NewAsm(guest.DefaultCodeBase)
	build(a)
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

func exitWith(a *x86.Asm) {
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
}

// sumLoop computes sum 1..n with some memory traffic.
func sumLoop(n uint32) *guest.Image {
	return image(func(a *x86.Asm) {
		a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
		a.MovRegImm(x86.EBX, 0)
		a.MovRegImm(x86.ECX, n)
		a.Label("loop")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.MovMemReg(x86.MemIdx(x86.ESI, x86.ECX, 4, 0), x86.EBX)
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.MemIdx(x86.ESI, x86.ECX, 4, 0))
		a.ALU(x86.SUB, x86.RegOp(x86.EBX, 4), x86.MemIdx(x86.ESI, x86.ECX, 4, 0))
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.MemIdx(x86.ESI, x86.ECX, 4, 0))
		a.ALU(x86.SUB, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "loop")
		exitWith(a)
	})
}

// checkAgainstReference runs img on the machine under cfg and verifies
// exit status and registers against the reference interpreter.
func checkAgainstReference(t *testing.T, img *guest.Image, cfg Config) *Result {
	t.Helper()
	ref := guest.Load(img)
	if exited, err := x86interp.New(ref).Run(20_000_000); err != nil || !exited {
		t.Fatalf("reference: err=%v exited=%v", err, exited)
	}
	res, err := Run(img, cfg)
	if err != nil {
		t.Fatalf("machine run: %v", err)
	}
	if res.ExitCode != ref.Kern.ExitCode {
		t.Errorf("exit code %d, want %d", res.ExitCode, ref.Kern.ExitCode)
	}
	if res.Stdout != ref.Kern.Stdout.String() {
		t.Errorf("stdout %q, want %q", res.Stdout, ref.Kern.Stdout.String())
	}
	if res.Cycles == 0 {
		t.Error("zero cycle count")
	}
	return res
}

func TestMachineRunsSimpleLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 500_000_000
	res := checkAgainstReference(t, sumLoop(2000), cfg)
	if res.M.Translations == 0 || res.M.L2CAccess == 0 {
		t.Errorf("metrics not collected: %+v", res.M)
	}
}

func TestMachineAllStaticConfigs(t *testing.T) {
	img := sumLoop(500)
	for _, c := range []struct {
		name string
		mut  func(*Config)
	}{
		{"conservative-1", func(c *Config) { c.Slaves = 1; c.Speculative = false }},
		{"spec-1", func(c *Config) { c.Slaves = 1 }},
		{"spec-2", func(c *Config) { c.Slaves = 2 }},
		{"spec-4", func(c *Config) { c.Slaves = 4 }},
		{"spec-6", func(c *Config) { c.Slaves = 6 }},
		{"spec-9", func(c *Config) { c.Slaves = 9; c.MemBanks = 1 }},
		{"no-l15", func(c *Config) { c.L15Banks = 0 }},
		{"l15-1", func(c *Config) { c.L15Banks = 1 }},
		{"no-opt", func(c *Config) { c.Optimize = false; c.ConservativeFlags = true }},
		{"1-bank", func(c *Config) { c.MemBanks = 1 }},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 500_000_000
			c.mut(&cfg)
			checkAgainstReference(t, img, cfg)
		})
	}
}

func TestMachineMorphing(t *testing.T) {
	for _, thr := range []int{0, 5, 15} {
		thr := thr
		t.Run(fmt.Sprintf("threshold%d", thr), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Morph = true
			cfg.MorphThreshold = thr
			cfg.MorphMinInterval = 5_000
			cfg.MaxCycles = 500_000_000
			res := checkAgainstReference(t, sumLoop(2000), cfg)
			t.Logf("reconfigs=%d flushLines=%d cycles=%d",
				res.M.Reconfigs, res.M.MorphFlushLines, res.Cycles)
		})
	}
}

func TestMachineFunctionCallsAndMemory(t *testing.T) {
	img := image(func(a *x86.Asm) {
		a.PushImm(8)
		a.Call("fib")
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.MovRegReg(x86.EBX, x86.EAX)
		exitWith(a)
		a.Label("fib")
		a.Push(x86.EBP)
		a.MovRegReg(x86.EBP, x86.ESP)
		a.MovRegMem(x86.EAX, x86.Mem(x86.EBP, 8))
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.ImmOp(2, 4))
		a.Jcc(x86.CondL, "ret")
		a.DecReg(x86.EAX)
		a.Push(x86.EAX)
		a.Call("fib")
		a.MovRegReg(x86.ECX, x86.EAX)
		a.MovRegMem(x86.EAX, x86.Mem(x86.ESP, 0))
		a.DecReg(x86.EAX)
		a.Push(x86.ECX)
		a.Push(x86.EAX)
		a.Call("fib")
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.Pop(x86.ECX)
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.ALU(x86.ADD, x86.RegOp(x86.EAX, 4), x86.RegOp(x86.ECX, 4))
		a.Label("ret")
		a.Pop(x86.EBP)
		a.Ret()
	})
	cfg := DefaultConfig()
	cfg.MaxCycles = 500_000_000
	res := checkAgainstReference(t, img, cfg)
	if res.ExitCode != 21 { // fib(8)
		t.Errorf("fib(8) = %d, want 21", res.ExitCode)
	}
}

func TestMachineSpeculationReducesDemandMisses(t *testing.T) {
	// A long-running warm-up loop followed by a long chain of distinct
	// blocks: while the execution tile spins in the loop, speculative
	// translators run ahead down the fallthrough chain (Figure 1's
	// overlap), so the chain executes without demand misses.
	img := image(func(a *x86.Asm) {
		a.MovRegImm(x86.ECX, 20000)
		a.MovRegImm(x86.EBX, 0)
		a.Label("spin")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.ALU(x86.XOR, x86.RegOp(x86.EBX, 4), x86.ImmOp(0x55, 4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "spin")
		for i := 0; i < 200; i++ {
			a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(int32(i), 4))
			a.Jmp(fmt.Sprintf("b%d", i)) // block boundary
			a.Label(fmt.Sprintf("b%d", i))
		}
		exitWith(a)
	})
	run := func(slaves int, spec bool) *Result {
		cfg := DefaultConfig()
		cfg.Slaves = slaves
		cfg.Speculative = spec
		cfg.MaxCycles = 500_000_000
		res, err := Run(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	conservative := run(1, false)
	spec6 := run(6, true)
	if spec6.M.DemandMisses >= conservative.M.DemandMisses {
		t.Errorf("speculation did not reduce demand misses: %d vs %d",
			spec6.M.DemandMisses, conservative.M.DemandMisses)
	}
	if spec6.Cycles >= conservative.Cycles {
		t.Errorf("speculation did not speed up a translation-bound run: %d vs %d cycles",
			spec6.Cycles, conservative.Cycles)
	}
}

func TestMachineChainingKeepsHotLoopInL1(t *testing.T) {
	res := checkAgainstReference(t, sumLoop(5000), DefaultConfig())
	// A tight loop must be dispatched once and then chained: block
	// dispatches should be far below iteration count.
	if res.M.BlockDispatches > 1000 {
		t.Errorf("hot loop not chained: %d dispatches", res.M.BlockDispatches)
	}
	if res.M.Chains == 0 {
		t.Error("no chain patches recorded")
	}
}

// smcImage is a guest that patches an instruction's immediate at
// runtime, inside a hot chained loop.
func smcImage() *guest.Image {
	build := func(patchAddr uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDX, 0)
		a.MovRegImm(x86.EDI, 0)
		a.Label("top")
		a.Label("patch")
		a.MovRegImm(x86.EBX, 5) // imm at patch+1
		a.ALU(x86.ADD, x86.RegOp(x86.EDI, 4), x86.RegOp(x86.EBX, 4))
		a.ALU(x86.CMP, x86.RegOp(x86.EDX, 4), x86.ImmOp(10, 4))
		a.Jcc(x86.CondE, "done")
		a.IncReg(x86.EDX)
		a.ALU(x86.CMP, x86.RegOp(x86.EDX, 4), x86.ImmOp(5, 4))
		a.Jcc(x86.CondNE, "top")
		// Halfway through: patch the immediate from 5 to 7.
		a.MovRegImm(x86.ESI, patchAddr+1)
		a.MovRegImm(x86.EAX, 7)
		a.MovMemReg8(x86.Mem(x86.ESI, 0), x86.EAX)
		a.Jmp("top")
		a.Label("done")
		a.MovRegReg(x86.EBX, x86.EDI)
		exitWith(a)
		a.Bytes()
		return a
	}
	p1 := build(0)
	a := build(p1.LabelAddr("patch"))
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

// smcAssistImage is a guest that patches an assisted instruction: a
// loop runs div ecx (F7 F1) five times, rewrites its ModRM byte to F3
// (div ebx), and runs five more. It exits with 5*100/5 + 5*100/10 =
// 150; an assist that reuses the stale decode exits with 200.
func smcAssistImage() *guest.Image {
	build := func(patchAddr uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EDI, 0)
		a.MovRegImm(x86.ESI, 0)
		a.MovRegImm(x86.ECX, 5)
		a.MovRegImm(x86.EBX, 10)
		a.Label("top")
		a.MovRegImm(x86.EAX, 100)
		a.MovRegImm(x86.EDX, 0)
		a.Label("patch")
		a.DivRM(x86.RegOp(x86.ECX, 4)) // F7 F1; ModRM at patch+1
		a.ALU(x86.ADD, x86.RegOp(x86.EDI, 4), x86.RegOp(x86.EAX, 4))
		a.IncReg(x86.ESI)
		a.ALU(x86.CMP, x86.RegOp(x86.ESI, 4), x86.ImmOp(10, 4))
		a.Jcc(x86.CondE, "done")
		a.ALU(x86.CMP, x86.RegOp(x86.ESI, 4), x86.ImmOp(5, 4))
		a.Jcc(x86.CondNE, "top")
		a.MovRegImm(x86.EDX, patchAddr+1)
		a.MovRegImm(x86.EAX, 0xF3) // ModRM of div ebx
		a.MovMemReg8(x86.Mem(x86.EDX, 0), x86.EAX)
		a.Jmp("top")
		a.Label("done")
		a.MovRegReg(x86.EBX, x86.EDI)
		exitWith(a)
		a.Bytes()
		return a
	}
	p1 := build(0)
	a := build(p1.LabelAddr("patch"))
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

// TestMachineSelfModifyingCode runs smcImage and checks the machine
// both produces the reference result and records the invalidation.
func TestMachineSelfModifyingCode(t *testing.T) {
	img := smcImage()

	res := checkAgainstReference(t, img, DefaultConfig())
	if res.M.SMCInvalidations == 0 {
		t.Error("no SMC invalidation recorded")
	}
	// 6 iterations at 5 (edx 0..5), then 5 at 7 (edx 6..10): 30+35? The
	// reference interpreter defines truth; just confirm the new value
	// was observed (exit != 11*5).
	if res.ExitCode == 55 {
		t.Error("patched immediate never took effect (stale translation executed)")
	}

	// The patched instruction is assisted, so the invalidation must
	// also reach the assist interpreter's decode cache.
	t.Run("assist", func(t *testing.T) {
		res := checkAgainstReference(t, smcAssistImage(), DefaultConfig())
		if res.M.Assists == 0 || res.M.SMCInvalidations == 0 {
			t.Errorf("assists %d, SMC invalidations %d: want both nonzero",
				res.M.Assists, res.M.SMCInvalidations)
		}
	})
}

// TestMachineRandomDifferential pushes seeded random programs through
// the full machine (all tile kernels, caches, assists, SMC detection)
// and compares final state with the reference interpreter — the
// machine-level counterpart of the flat differential suite in
// internal/translate.
func TestMachineRandomDifferential(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			img := randomMachineProgram(seed, 150)
			ref := guest.Load(img)
			if exited, err := x86interp.New(ref).Run(5_000_000); err != nil || !exited {
				t.Fatalf("reference: %v exited=%v", err, exited)
			}
			cfg := DefaultConfig()
			cfg.MaxCycles = 1_000_000_000
			res, err := Run(img, cfg)
			if err != nil {
				t.Fatalf("machine: %v", err)
			}
			if res.ExitCode != ref.Kern.ExitCode {
				t.Errorf("exit %d, want %d", res.ExitCode, ref.Kern.ExitCode)
			}
		})
	}
}

// randomMachineProgram mirrors the translate package's generator with
// loops added so blocks chain and re-execute on the machine.
func randomMachineProgram(seed int64, n int) *guest.Image {
	r := rand.New(rand.NewSource(seed))
	a := x86.NewAsm(guest.DefaultCodeBase)
	// EBP anchors the loop-counter frame and ESI the data region;
	// everything else is scratch.
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.EDI}
	reg := func() x86.Reg { return regs[r.Intn(len(regs))] }
	a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
	for _, rg := range regs {
		a.MovRegImm(rg, r.Uint32())
	}
	// Outer loop in a stack slot so all scratch registers stay free.
	a.Push(x86.EBP)
	a.MovRegReg(x86.EBP, x86.ESP)
	a.ALU(x86.SUB, x86.RegOp(x86.ESP, 4), x86.ImmOp(16, 4))
	a.MovMemImm(x86.Mem(x86.EBP, -4), 40)
	a.Label("outer")
	aluOps := []x86.Op{x86.ADD, x86.SUB, x86.ADC, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP}
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			op := aluOps[r.Intn(len(aluOps))]
			if r.Intn(2) == 0 {
				a.ALU(op, x86.RegOp(reg(), 4), x86.RegOp(reg(), 4))
			} else {
				a.ALU(op, x86.RegOp(reg(), 4), x86.ImmOp(int32(r.Uint32()), 4))
			}
		case 3:
			a.MovMemReg(x86.Mem(x86.ESI, int32(r.Intn(2048))*4), reg())
		case 4:
			a.MovRegMem(reg(), x86.Mem(x86.ESI, int32(r.Intn(2048))*4))
		case 5:
			ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR, x86.RCL, x86.RCR}
			a.ShiftImm(ops[r.Intn(len(ops))], x86.RegOp(reg(), 4), uint8(1+r.Intn(31)))
		case 6:
			a.Setcc(x86.Cond(r.Intn(16)), x86.RegOp(reg(), 1))
		case 7:
			a.IMulRegRMImm(reg(), x86.RegOp(reg(), 4), int32(r.Intn(4096))-2048)
		case 8: // short forward branch: both paths converge
			lbl := fmt.Sprintf("skip%d", i)
			a.TestImm(x86.RegOp(reg(), 4), 1)
			a.Jcc(x86.CondNE, lbl)
			a.ALU(x86.XOR, x86.RegOp(reg(), 4), x86.ImmOp(int32(r.Uint32()), 4))
			a.Label(lbl)
		case 9:
			ops := []x86.Op{x86.BT, x86.BTS, x86.BTR, x86.BTC}
			a.BtImm(ops[r.Intn(4)], x86.RegOp(reg(), 4), uint8(r.Intn(32)))
		}
	}
	a.Raw(0xFF, 0x4D, 0xFC) // dec dword [ebp-4]
	a.Jcc(x86.CondNE, "outer")
	a.Leave()
	for _, rg := range regs {
		if rg != x86.EBX {
			a.ALU(x86.XOR, x86.RegOp(x86.EBX, 4), x86.RegOp(rg, 4))
		}
	}
	a.ALU(x86.AND, x86.RegOp(x86.EBX, 4), x86.ImmOp(0x7f, 4))
	exitWith(a)
	return &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
}

func TestMorphingActuallyReconfigures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Morph = true
	cfg.MorphThreshold = 0
	cfg.MorphMinInterval = 2_000
	res := checkAgainstReference(t, sumLoop(3000), cfg)
	if res.M.Reconfigs == 0 {
		t.Error("threshold-0 morphing never reconfigured")
	}
	// Threshold 0 must reconfigure at least as often as threshold 15.
	cfg15 := cfg
	cfg15.MorphThreshold = 15
	res15 := checkAgainstReference(t, sumLoop(3000), cfg15)
	if res15.M.Reconfigs > res.M.Reconfigs {
		t.Errorf("threshold 15 reconfigured more than threshold 0 (%d vs %d)",
			res15.M.Reconfigs, res.M.Reconfigs)
	}
}
