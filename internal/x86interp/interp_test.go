package x86interp

import (
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
)

// run assembles a program, loads it, and runs it to exit.
func run(t *testing.T, build func(a *x86.Asm)) *guest.Process {
	t.Helper()
	a := x86.NewAsm(guest.DefaultCodeBase)
	build(a)
	return runImage(t, a.Bytes())
}

// runImage loads code at the default code base and runs it to exit.
func runImage(t *testing.T, code []byte) *guest.Process {
	t.Helper()
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: code}
	p := guest.Load(img)
	it := New(p)
	exited, err := it.Run(1_000_000)
	if err != nil {
		t.Fatalf("run: %v\nstate: %s", err, p.CPU.String())
	}
	if !exited {
		t.Fatalf("program did not exit; state: %s", p.CPU.String())
	}
	return p
}

// exit emits the Linux exit syscall with EBX as status.
func exit(a *x86.Asm) {
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
}

func TestExitCode(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EBX, 42)
		exit(a)
	})
	if p.Kern.ExitCode != 42 {
		t.Errorf("exit code = %d, want 42", p.Kern.ExitCode)
	}
}

func TestArithmeticLoop(t *testing.T) {
	// sum 1..10 = 55
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EBX, 0)
		a.MovRegImm(x86.ECX, 10)
		a.Label("loop")
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		a.DecReg(x86.ECX)
		a.Jcc(x86.CondNE, "loop")
		exit(a)
	})
	if p.Kern.ExitCode != 55 {
		t.Errorf("sum = %d, want 55", p.Kern.ExitCode)
	}
}

func TestFactorialWithCalls(t *testing.T) {
	// Recursive factorial(6) = 720 via call/ret and stack args.
	p := run(t, func(a *x86.Asm) {
		a.PushImm(6)
		a.Call("fact")
		a.ALU(x86.ADD, x86.RegOp(x86.ESP, 4), x86.ImmOp(4, 4))
		a.MovRegReg(x86.EBX, x86.EAX)
		exit(a)

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
	})
	if p.Kern.ExitCode != 720 {
		t.Errorf("fact(6) = %d, want 720", p.Kern.ExitCode)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	// Store values to the heap, read them back with indexed addressing.
	p := run(t, func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, base)
		a.MovMemImm(x86.Mem(x86.ESI, 0), 100)
		a.MovMemImm(x86.Mem(x86.ESI, 4), 200)
		a.MovRegImm(x86.ECX, 1)
		a.MovRegMem(x86.EBX, x86.MemIdx(x86.ESI, x86.ECX, 4, 0)) // [esi+ecx*4] = 200
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.Mem(x86.ESI, 0))
		exit(a)
	})
	if p.Kern.ExitCode != 300 {
		t.Errorf("got %d, want 300", p.Kern.ExitCode)
	}
}

func TestByteOps(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		base := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, base)
		a.MovRegImm(x86.EAX, 0x1ff) // AL = 0xff
		a.MovMemReg8(x86.Mem(x86.ESI, 0), x86.EAX)
		a.Movzx8(x86.EBX, x86.Mem(x86.ESI, 0)) // 0xff
		a.Movsx8(x86.ECX, x86.Mem(x86.ESI, 0)) // -1
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.ECX, 4))
		exit(a)
	})
	if p.Kern.ExitCode != 0xfe {
		t.Errorf("got %#x, want 0xfe", p.Kern.ExitCode)
	}
}

func TestConditionalsAndSetcc(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 7)
		a.MovRegImm(x86.EBX, 0)
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.ImmOp(5, 4))
		a.Setcc(x86.CondG, x86.RegOp(x86.EBX, 1)) // BL = 1
		a.ALU(x86.CMP, x86.RegOp(x86.EAX, 4), x86.ImmOp(9, 4))
		a.Cmovcc(x86.CondL, x86.EBX, x86.RegOp(x86.EAX, 4)) // EBX = 7
		exit(a)
	})
	if p.Kern.ExitCode != 7 {
		t.Errorf("got %d, want 7", p.Kern.ExitCode)
	}
}

func TestShiftsAndRotates(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EBX, 1)
		a.ShiftImm(x86.SHL, x86.RegOp(x86.EBX, 4), 5) // 32
		a.MovRegImm(x86.ECX, 2)
		a.ShiftCL(x86.SHR, x86.RegOp(x86.EBX, 4)) // 8
		a.MovRegImm(x86.EAX, 0x80000000)
		a.ShiftImm(x86.SAR, x86.RegOp(x86.EAX, 4), 31)               // -1
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EAX, 4)) // 7
		a.MovRegImm(x86.EDX, 0x80000001)
		a.ShiftImm(x86.ROL, x86.RegOp(x86.EDX, 4), 1)                // 3
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EDX, 4)) // 10
		exit(a)
	})
	if p.Kern.ExitCode != 10 {
		t.Errorf("got %d, want 10", p.Kern.ExitCode)
	}
}

func TestMulDiv(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 1000000)
		a.MovRegImm(x86.ECX, 5000)
		a.MulRM(x86.RegOp(x86.ECX, 4)) // EDX:EAX = 5e9
		a.MovRegImm(x86.ECX, 1000)
		a.DivRM(x86.RegOp(x86.ECX, 4)) // EAX = 5e6
		a.MovRegReg(x86.EBX, x86.EAX)
		a.MovRegImm(x86.EAX, 0)
		a.ALU(x86.SUB, x86.RegOp(x86.EAX, 4), x86.ImmOp(100, 4)) // -100
		a.Cdq()
		a.MovRegImm(x86.ECX, 7)
		a.IDivRM(x86.RegOp(x86.ECX, 4)) // -14 rem -2
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.RegOp(x86.EAX, 4))
		exit(a)
	})
	if p.Kern.ExitCode != 5000000-14 {
		t.Errorf("got %d, want %d", p.Kern.ExitCode, 5000000-14)
	}
}

func TestAdcSbbChain(t *testing.T) {
	// 64-bit add via ADC: 0xFFFFFFFF + 1 with carry into high word.
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0xffffffff)
		a.MovRegImm(x86.EDX, 0)
		a.ALU(x86.ADD, x86.RegOp(x86.EAX, 4), x86.ImmOp(1, 4))
		a.ALU(x86.ADC, x86.RegOp(x86.EDX, 4), x86.ImmOp(0, 4))
		a.MovRegReg(x86.EBX, x86.EDX)
		exit(a)
	})
	if p.Kern.ExitCode != 1 {
		t.Errorf("carry chain: got %d, want 1", p.Kern.ExitCode)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// Two-pass assembly: first pass with zero table entries to learn
	// the case label addresses, second pass with the real table.
	build := func(case0, case1 uint32) *x86.Asm {
		a := x86.NewAsm(guest.DefaultCodeBase)
		table := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, table)
		a.MovMemImm(x86.Mem(x86.ESI, 0), case0)
		a.MovMemImm(x86.Mem(x86.ESI, 4), case1)
		a.MovRegImm(x86.EDX, 1)
		a.JmpMem(x86.MemIdx(x86.ESI, x86.EDX, 4, 0))
		a.Label("case0")
		a.MovRegImm(x86.EBX, 10)
		a.Jmp("out")
		a.Label("case1")
		a.MovRegImm(x86.EBX, 20)
		a.Label("out")
		exit(a)
		a.Bytes()
		return a
	}
	pass1 := build(0, 0)
	a := build(pass1.LabelAddr("case0"), pass1.LabelAddr("case1"))
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	p := guest.Load(img)
	exited, err := New(p).Run(10000)
	if err != nil || !exited {
		t.Fatalf("run: %v exited=%v", err, exited)
	}
	if p.Kern.ExitCode != 20 {
		t.Errorf("jump table picked %d, want 20", p.Kern.ExitCode)
	}
}

func TestIndirectJumpThroughRegister(t *testing.T) {
	// Simpler direct test: load a label address into a register by
	// assembling twice (first pass to learn the address).
	build := func(caseAddr uint32) []byte {
		a := x86.NewAsm(guest.DefaultCodeBase)
		a.MovRegImm(x86.EAX, caseAddr)
		a.JmpReg(x86.EAX)
		a.MovRegImm(x86.EBX, 1) // skipped
		a.Label("target")
		a.MovRegImm(x86.EBX, 99)
		a.MovRegImm(x86.EAX, 1)
		a.Int(0x80)
		code := a.Bytes()
		if caseAddr == 0 {
			return []byte{byte(a.LabelAddr("target")), byte(a.LabelAddr("target") >> 8),
				byte(a.LabelAddr("target") >> 16), byte(a.LabelAddr("target") >> 24)}
		}
		return code
	}
	addrBytes := build(0)
	addr := uint32(addrBytes[0]) | uint32(addrBytes[1])<<8 | uint32(addrBytes[2])<<16 | uint32(addrBytes[3])<<24
	code := build(addr)
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: code}
	p := guest.Load(img)
	exited, err := New(p).Run(10000)
	if err != nil || !exited {
		t.Fatalf("run: %v exited=%v", err, exited)
	}
	if p.Kern.ExitCode != 99 {
		t.Errorf("got %d, want 99", p.Kern.ExitCode)
	}
}

func TestStringOps(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		src := uint32(guest.DefaultHeapBase)
		dst := src + 0x1000
		// Fill 16 words at src with 0x11111111 via REP STOSD.
		a.Cld()
		a.MovRegImm(x86.EDI, src)
		a.MovRegImm(x86.EAX, 0x11111111)
		a.MovRegImm(x86.ECX, 16)
		a.RepStosd()
		// Copy to dst via REP MOVSD.
		a.MovRegImm(x86.ESI, src)
		a.MovRegImm(x86.EDI, dst)
		a.MovRegImm(x86.ECX, 16)
		a.RepMovsd()
		// Check one value.
		a.MovRegImm(x86.ESI, dst)
		a.MovRegMem(x86.EBX, x86.Mem(x86.ESI, 60))
		exit(a)
	})
	if uint32(p.Kern.ExitCode) != 0x11111111 {
		t.Errorf("got %#x, want 0x11111111", uint32(p.Kern.ExitCode))
	}
}

func TestWriteSyscall(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		msg := uint32(guest.DefaultHeapBase)
		a.MovRegImm(x86.ESI, msg)
		a.MovMemImm(x86.Mem(x86.ESI, 0), 0x6f6c6c68) // "hllo"... deliberately "hell"
		// Write "hell" properly: h=0x68 e=0x65 l=0x6c l=0x6c
		a.MovMemImm(x86.Mem(x86.ESI, 0), 0x6c6c6568)
		a.MovRegImm(x86.EAX, 4) // write
		a.MovRegImm(x86.EBX, 1) // stdout
		a.MovRegReg(x86.ECX, x86.ESI)
		a.MovRegImm(x86.EDX, 4)
		a.Int(0x80)
		a.MovRegImm(x86.EBX, 0)
		exit(a)
	})
	if got := p.Kern.Stdout.String(); got != "hell" {
		t.Errorf("stdout = %q, want %q", got, "hell")
	}
}

func TestBrkSyscall(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 45) // brk(0) → current break
		a.MovRegImm(x86.EBX, 0)
		a.Int(0x80)
		a.MovRegReg(x86.EBX, x86.EAX)
		a.ALU(x86.ADD, x86.RegOp(x86.EBX, 4), x86.ImmOp(0x1000, 4))
		a.MovRegImm(x86.EAX, 45) // brk(cur+0x1000)
		a.Int(0x80)
		// Store to the new memory and read back.
		a.MovRegReg(x86.ESI, x86.EAX)
		a.MovMemImm(x86.Mem(x86.ESI, -4), 77)
		a.MovRegMem(x86.EBX, x86.Mem(x86.ESI, -4))
		exit(a)
	})
	if p.Kern.ExitCode != 77 {
		t.Errorf("got %d, want 77", p.Kern.ExitCode)
	}
}

func TestFaults(t *testing.T) {
	// Divide by zero.
	a := x86.NewAsm(guest.DefaultCodeBase)
	a.MovRegImm(x86.EAX, 1)
	a.MovRegImm(x86.EDX, 0)
	a.MovRegImm(x86.ECX, 0)
	a.DivRM(x86.RegOp(x86.ECX, 4))
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	p := guest.Load(img)
	if _, err := New(p).Run(100); err == nil {
		t.Error("divide by zero did not fault")
	}
	// HLT.
	a = x86.NewAsm(guest.DefaultCodeBase)
	a.Hlt()
	img = &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	p = guest.Load(img)
	if _, err := New(p).Run(100); err == nil {
		t.Error("hlt did not fault")
	}
}

func TestOnMemHook(t *testing.T) {
	var reads, writes int
	a := x86.NewAsm(guest.DefaultCodeBase)
	a.MovRegImm(x86.ESI, guest.DefaultHeapBase)
	a.MovMemImm(x86.Mem(x86.ESI, 0), 5)
	a.MovRegMem(x86.EBX, x86.Mem(x86.ESI, 0))
	a.MovRegImm(x86.EAX, 1)
	a.Int(0x80)
	img := &guest.Image{Entry: guest.DefaultCodeBase, CodeBase: guest.DefaultCodeBase, Code: a.Bytes()}
	p := guest.Load(img)
	it := New(p)
	it.OnMem = func(addr uint32, size uint8, write bool) {
		if write {
			writes++
		} else {
			reads++
		}
	}
	if _, err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if writes != 1 || reads != 1 {
		t.Errorf("reads=%d writes=%d, want 1/1", reads, writes)
	}
}

func TestLeaveAndFrames(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.Call("f")
		a.MovRegReg(x86.EBX, x86.EAX)
		exit(a)
		a.Label("f")
		a.Push(x86.EBP)
		a.MovRegReg(x86.EBP, x86.ESP)
		a.ALU(x86.SUB, x86.RegOp(x86.ESP, 4), x86.ImmOp(16, 4))
		a.MovMemImm(x86.Mem(x86.EBP, -4), 31)
		a.MovRegMem(x86.EAX, x86.Mem(x86.EBP, -4))
		a.Leave()
		a.Ret()
	})
	if p.Kern.ExitCode != 31 {
		t.Errorf("got %d, want 31", p.Kern.ExitCode)
	}
}

func TestXchgAndBswap(t *testing.T) {
	p := run(t, func(a *x86.Asm) {
		a.MovRegImm(x86.EAX, 0x12345678)
		a.Bswap(x86.EAX)
		a.MovRegImm(x86.EBX, 0)
		a.Raw(0x93) // XCHG EAX, EBX
		exit(a)
	})
	if uint32(p.Kern.ExitCode) != 0x78563412 {
		t.Errorf("got %#x, want 0x78563412", uint32(p.Kern.ExitCode))
	}
}
