package rawexec

import (
	"testing"

	"tilevm/internal/guest"
	"tilevm/internal/rawisa"
)

// run executes a code fragment with a flat env over an empty process.
func run(t *testing.T, code []rawisa.Inst) (*CPU, *FlatEnv, Exit) {
	t.Helper()
	img := &guest.Image{Entry: 0, CodeBase: 0, Code: []byte{0x90}}
	p := guest.Load(img)
	clk := &CountClock{}
	env := NewFlatEnv(p, clk)
	cpu := &CPU{}
	exit, err := Exec(cpu, code, 0, clk, env, 10000)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return cpu, env, exit
}

func TestALUOps(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 0, Imm: 10},
		{Op: rawisa.ADDI, Rd: 2, Rs: 0, Imm: 3},
		{Op: rawisa.SUB, Rd: 3, Rs: 1, Rt: 2},  // 7
		{Op: rawisa.SLL, Rd: 4, Rs: 2, Rt: 3},  // 7<<3 = 56
		{Op: rawisa.NOR, Rd: 5, Rs: 4, Rt: 0},  // ^56
		{Op: rawisa.SLTU, Rd: 6, Rs: 2, Rt: 1}, // 3 < 10 = 1
		{Op: rawisa.EXITI, Imm: 0x42},
	}
	cpu, _, exit := run(t, code)
	if cpu.R[3] != 7 || cpu.R[4] != 56 || cpu.R[5] != ^uint32(56) || cpu.R[6] != 1 {
		t.Errorf("regs: %v", cpu.R[:8])
	}
	if exit.NextPC != 0x42 {
		t.Errorf("NextPC = %#x", exit.NextPC)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 0, Rs: 0, Imm: 99},
		{Op: rawisa.EXITI, Imm: 0},
	}
	cpu, _, _ := run(t, code)
	if cpu.R[0] != 0 {
		t.Error("r0 written")
	}
}

func TestMultDiv(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 0, Imm: -5},
		{Op: rawisa.ADDI, Rd: 2, Rs: 0, Imm: 1000},
		{Op: rawisa.MULT, Rs: 1, Rt: 2},
		{Op: rawisa.MFLO, Rd: 3}, // -5000
		{Op: rawisa.MFHI, Rd: 4}, // sign extension
		{Op: rawisa.DIV, Rs: 2, Rt: 1},
		{Op: rawisa.MFLO, Rd: 5}, // 1000/-5 = -200
		{Op: rawisa.EXITI, Imm: 0},
	}
	cpu, _, _ := run(t, code)
	if int32(cpu.R[3]) != -5000 || cpu.R[4] != 0xffffffff || int32(cpu.R[5]) != -200 {
		t.Errorf("r3=%d r4=%#x r5=%d", int32(cpu.R[3]), cpu.R[4], int32(cpu.R[5]))
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.DIV, Rs: 1, Rt: 0},
		{Op: rawisa.EXITI, Imm: 0},
	}
	img := &guest.Image{Entry: 0, CodeBase: 0, Code: []byte{0x90}}
	p := guest.Load(img)
	clk := &CountClock{}
	cpu := &CPU{}
	if _, err := Exec(cpu, code, 0, clk, NewFlatEnv(p, clk), 100); err == nil {
		t.Error("divide by zero did not fault")
	}
}

func TestBranchesAndChainedJump(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 0, Imm: 3},
		// loop: r2 += r1; r1--; bne r1,0,loop
		{Op: rawisa.ADD, Rd: 2, Rs: 2, Rt: 1},
		{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: -1},
		{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: -3},
		{Op: rawisa.J, Imm: 1}, // chained jump over the exit
		{Op: rawisa.EXITI, Imm: 0xdead},
		{Op: rawisa.EXITI, Imm: 0xbeef},
	}
	cpu, _, exit := run(t, code)
	if cpu.R[2] != 6 {
		t.Errorf("sum = %d", cpu.R[2])
	}
	if exit.NextPC != 0xbeef {
		t.Errorf("chained exit = %#x", exit.NextPC)
	}
}

func TestGuestMemoryOps(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.LUI, Rd: 1, Imm: 0x0a00}, // heap
		{Op: rawisa.ADDI, Rd: 2, Rs: 0, Imm: -2},
		{Op: rawisa.GSW, Rs: 1, Rt: 2},  // [heap] = 0xfffffffe
		{Op: rawisa.GLW, Rd: 3, Rs: 1},  // full word
		{Op: rawisa.GLB, Rd: 4, Rs: 1},  // sign-extended byte
		{Op: rawisa.GLBU, Rd: 5, Rs: 1}, // zero-extended byte
		{Op: rawisa.GLH, Rd: 6, Rs: 1},
		{Op: rawisa.GLHU, Rd: 7, Rs: 1},
		{Op: rawisa.EXITI, Imm: 0},
	}
	cpu, env, _ := run(t, code)
	if cpu.R[3] != 0xfffffffe {
		t.Errorf("glw = %#x", cpu.R[3])
	}
	if cpu.R[4] != 0xfffffffe || cpu.R[5] != 0xfe {
		t.Errorf("glb=%#x glbu=%#x", cpu.R[4], cpu.R[5])
	}
	if cpu.R[6] != 0xfffffffe || cpu.R[7] != 0xfffe {
		t.Errorf("glh=%#x glhu=%#x", cpu.R[6], cpu.R[7])
	}
	if env.P.Mem.Read32(0x0a000000) != 0xfffffffe {
		t.Error("store did not reach guest memory")
	}
}

func TestLoadUseStall(t *testing.T) {
	img := &guest.Image{Entry: 0, CodeBase: 0, Code: []byte{0x90}}
	p := guest.Load(img)
	clk := &CountClock{}
	env := NewFlatEnv(p, clk)
	env.LoadLat = 10
	code := []rawisa.Inst{
		{Op: rawisa.GLW, Rd: 2, Rs: 1},
		{Op: rawisa.ADD, Rd: 3, Rs: 2, Rt: 2}, // immediate use: must stall
		{Op: rawisa.EXITI, Imm: 0},
	}
	cpu := &CPU{}
	if _, err := Exec(cpu, code, 0, clk, env, 100); err != nil {
		t.Fatal(err)
	}
	// 1 (GLW issue) + 10 (stall to ready) + 1 (ADD) + exit.
	if clk.T < 12 {
		t.Errorf("no load-use stall: %d cycles", clk.T)
	}

	// Independent work between load and use hides the latency.
	clk2 := &CountClock{}
	env2 := NewFlatEnv(p, clk2)
	env2.LoadLat = 10
	var padded []rawisa.Inst
	padded = append(padded, rawisa.Inst{Op: rawisa.GLW, Rd: 2, Rs: 1})
	for i := 0; i < 12; i++ {
		padded = append(padded, rawisa.Inst{Op: rawisa.ADDI, Rd: 4, Rs: 4, Imm: 1})
	}
	padded = append(padded, rawisa.Inst{Op: rawisa.ADD, Rd: 3, Rs: 2, Rt: 2})
	padded = append(padded, rawisa.Inst{Op: rawisa.EXITI})
	cpu2 := &CPU{}
	if _, err := Exec(cpu2, padded, 0, clk2, env2, 100); err != nil {
		t.Fatal(err)
	}
	if clk2.T > 18 {
		t.Errorf("latency not hidden by independent work: %d cycles", clk2.T)
	}
}

func TestScratchMemory(t *testing.T) {
	code := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 0, Imm: 0x77},
		{Op: rawisa.SW, Rs: 0, Rt: 1, Imm: 32},
		{Op: rawisa.LW, Rd: 2, Rs: 0, Imm: 32},
		{Op: rawisa.EXITI, Imm: 0},
	}
	cpu, _, _ := run(t, code)
	if cpu.R[2] != 0x77 {
		t.Errorf("scratch round trip = %#x", cpu.R[2])
	}
}

func TestArenaEscapeFaults(t *testing.T) {
	img := &guest.Image{Entry: 0, CodeBase: 0, Code: []byte{0x90}}
	p := guest.Load(img)
	clk := &CountClock{}
	code := []rawisa.Inst{{Op: rawisa.ADDI, Rd: 1, Rs: 0, Imm: 1}} // falls off the end
	cpu := &CPU{}
	if _, err := Exec(cpu, code, 0, clk, NewFlatEnv(p, clk), 100); err == nil {
		t.Error("running off the arena did not fault")
	}
}

func TestInstructionBudget(t *testing.T) {
	img := &guest.Image{Entry: 0, CodeBase: 0, Code: []byte{0x90}}
	p := guest.Load(img)
	clk := &CountClock{}
	code := []rawisa.Inst{
		{Op: rawisa.J, Imm: -1}, // infinite loop
	}
	cpu := &CPU{}
	if _, err := Exec(cpu, code, 0, clk, NewFlatEnv(p, clk), 1000); err == nil {
		t.Error("budget exhaustion did not fault")
	}
}

func TestGuestStateRoundTrip(t *testing.T) {
	var g guest.CPU
	for i := range g.R {
		g.R[i] = uint32(i * 0x1111)
	}
	g.Flags = 0x8d5
	var c CPU
	c.LoadGuest(&g)
	var back guest.CPU
	c.StoreGuest(&back)
	if back != g {
		t.Errorf("round trip: %+v != %+v", back, g)
	}
}
