package rawexec

import (
	"testing"
	"unsafe"

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
func (nopEnv) Interrupted() bool                                               { return false }

// countdownLoop is the canonical two-instruction inner loop: decrement
// r1, branch back while nonzero.
var countdownLoop = []rawisa.Inst{
	{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: -1},
	{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: -2},
	{Op: rawisa.EXITI, Target: 0xdead},
}

// BenchmarkInnerLoop measures the predecoded dispatch path on the
// countdown loop: the whole benchmark is one Exec call retiring 2·N
// host instructions.
func BenchmarkInnerLoop(b *testing.B) {
	var p Program
	p.Sync(countdownLoop)
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

// TestAppendChainMatchesSync pins the fill contract: blocks predecoded
// on their own, appended at whatever offset the program has reached and
// chained in place, must equal predecoding the same instruction memory
// from scratch with the chain sites rewritten to absolute jumps.
func TestAppendChainMatchesSync(t *testing.T) {
	a := []rawisa.Inst{
		{Op: rawisa.ADDI, Rd: 1, Rs: 1, Imm: 7},
		{Op: rawisa.BNE, Rs: 1, Rt: 0, Imm: 1},
		{Op: rawisa.CHAIN, Target: 0x2000},
		{Op: rawisa.CHAIN, Target: 0x3000},
	}
	b := []rawisa.Inst{
		{Op: rawisa.GLH, Rd: 2, Rs: 1},
		{Op: rawisa.BEQ, Rs: 2, Rt: 0, Imm: -2},
		{Op: rawisa.ASSIST, Target: 0x2004},
		{Op: rawisa.CHAIN, Target: 0x1000},
	}
	var pa, pb, p Program
	pa.Sync(a)
	pb.Sync(b)
	ia := p.Append(&pa)
	ib := p.Append(&pb)
	ia2 := p.Append(&pa) // the same block again, at another offset
	p.Chain(ia+2, ib)    // forward
	p.Chain(ib+3, ia)    // backward
	p.Chain(ia2+2, ib)   // backward, from the second copy

	arena := append(append(append([]rawisa.Inst{}, a...), b...), a...)
	arena[ia+2] = rawisa.Inst{Op: rawisa.J, Target: uint32(ib)}
	arena[ib+3] = rawisa.Inst{Op: rawisa.J, Target: uint32(ia)}
	arena[ia2+2] = rawisa.Inst{Op: rawisa.J, Target: uint32(ib)}
	var fresh Program
	fresh.Sync(arena)
	if len(p.ops) != len(fresh.ops) {
		t.Fatalf("length %d, want %d", len(p.ops), len(fresh.ops))
	}
	for i := range p.ops {
		if p.ops[i] != fresh.ops[i] {
			t.Errorf("op %d: appended %+v, fresh %+v", i, p.ops[i], fresh.ops[i])
		}
	}
	if unsafe.Sizeof(uop{}) != 8 {
		t.Errorf("uop is %d bytes; every resident translation carries one per instruction", unsafe.Sizeof(uop{}))
	}
}
