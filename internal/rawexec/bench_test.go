package rawexec

import (
	"testing"

	"tilevm/internal/rawisa"
)

// nopEnv is an Env for pure ALU/branch benchmarks; none of its methods
// are reached by the benchmarked code.
type nopEnv struct{}

func (nopEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) { return 0, 0 }
func (nopEnv) GuestStore(addr uint32, val uint32, size uint8)                  {}
func (nopEnv) Syscall(cpu *CPU)                                                {}
func (nopEnv) Assist(guestPC uint32, cpu *CPU) error                           { return nil }
func (nopEnv) Stopped() bool                                                   { return false }
func (nopEnv) Interrupted(uint64) bool                                         { return false }

// countdownLoop is the canonical two-instruction inner loop: decrement
// r1, branch back while nonzero.
var countdownLoop = []rawisa.Inst{
	{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: -1},
	{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: -2},
	{Op: rawisa.EXITI, Imm: 0xdead},
}

// BenchmarkInnerLoop measures the Program dispatch path on the
// countdown loop: the whole benchmark is one Exec call retiring 2·N
// host instructions.
func BenchmarkInnerLoop(b *testing.B) {
	var p Program
	p.Sync(asm(b, countdownLoop))
	cpu := &CPU{}
	cpu.R[1] = uint32(b.N)
	clk := &CountClock{}
	b.ReportAllocs()
	b.ResetTimer()
	exit, err := p.Exec(cpu, 0, clk, nopEnv{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	if exit.NextPC != 0xdead {
		b.Fatalf("exit pc %#x", exit.NextPC)
	}
}

// TestAppendChainMatchesSync pins the fill contract: blocks appended
// at whatever offset the program has reached and chained in place must
// equal the same instruction memory laid out by hand, with the chain
// sites rewritten to jumps, and synced from scratch.
func TestAppendChainMatchesSync(t *testing.T) {
	a := asm(t, []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: 7},
		{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: 2},
		{Op: rawisa.CHAIN, Imm: 0x2000}, // words 2-3
		{Op: rawisa.CHAIN, Imm: 0x3000},
	})
	b := asm(t, []rawisa.Inst{
		{Op: rawisa.GLH, Rd: 2, Rs: 1},
		{Op: rawisa.BEQ, Rs: 2, Rt: 0, Imm: -2},
		{Op: rawisa.ASSIST, Imm: 0x2004},
		{Op: rawisa.CHAIN, Imm: 0x1000}, // words 4-5
	})
	var p Program
	ia := p.Append(a)
	ib := p.Append(b)
	ia2 := p.Append(a) // the same block again, at another offset
	p.Chain(ia+2, ib)  // forward
	p.Chain(ib+4, ia)  // backward
	p.Chain(ia2+2, ib) // backward, from the second copy

	arena := append(append(append([]rawisa.Word{}, a...), b...), a...)
	jump := func(site, target int) rawisa.Word {
		return asm(t, []rawisa.Inst{{Op: rawisa.J, Imm: int32(target - (site + 1))}})[0]
	}
	arena[ia+2] = jump(ia+2, ib)
	arena[ib+4] = jump(ib+4, ia)
	arena[ia2+2] = jump(ia2+2, ib)
	var fresh Program
	fresh.Sync(arena)
	if len(p.code) != len(fresh.code) {
		t.Fatalf("length %d, want %d", len(p.code), len(fresh.code))
	}
	for i := range p.code {
		if p.code[i] != fresh.code[i] {
			t.Errorf("word %d: appended %#x, fresh %#x", i, p.code[i], fresh.code[i])
		}
	}
	if a[2].Op() != rawisa.CHAIN || b[4].Op() != rawisa.CHAIN {
		t.Error("Append or Chain wrote through to the appended block")
	}
}
