package opt

import (
	"errors"
	"math/rand"
	"testing"

	"tilevm/internal/codegen"
	"tilevm/internal/ir"
	"tilevm/internal/rawexec"
	"tilevm/internal/rawisa"
)

// fuzzEnv is a guest for generated blocks: 4 KiB of wrap-around memory,
// and a syscall/assist that scrambles the pinned guest registers (and
// nothing else), which is exactly what the passes assume of them.
type fuzzEnv struct {
	mem [4096]byte
	clk rawexec.CountClock
}

func (e *fuzzEnv) GuestLoad(addr uint32, size uint8, signed bool) (uint32, uint64) {
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(e.mem[(addr+uint32(i))%4096]) << (8 * i)
	}
	if signed {
		sh := 32 - 8*uint32(size)
		v = uint32(int32(v<<sh) >> sh)
	}
	return v, e.clk.Now() + 3
}

func (e *fuzzEnv) GuestStore(addr, val uint32, size uint8) {
	for i := uint8(0); i < size; i++ {
		e.mem[(addr+uint32(i))%4096] = byte(val >> (8 * i))
	}
}

func (e *fuzzEnv) scramble(cpu *rawexec.CPU, salt uint32) {
	for r := rawisa.RegEAX; r <= rawisa.RegFlags; r++ {
		cpu.R[r] = cpu.R[r]*2654435761 + salt + uint32(r)
	}
}
func (e *fuzzEnv) Syscall(cpu *rawexec.CPU) { e.scramble(cpu, 1) }
func (e *fuzzEnv) Assist(pc uint32, cpu *rawexec.CPU) error {
	e.scramble(cpu, pc)
	return nil
}
func (e *fuzzEnv) Stopped() bool           { return false }
func (e *fuzzEnv) Interrupted(uint64) bool { return false }

// genBlock builds a forward-branching IR block from a decision stream.
// Virtual registers are only read where every path has defined them:
// a vreg first defined inside a skippable region is forgotten at the
// join. The pool includes vregs 254 and 255, the top of the table.
func genBlock(data []byte) (*ir.Block, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vpool := []uint8{32, 33, 34, 35, 36, 37, 38, 39, 254, 255}
	var defined [256]bool
	type pending struct {
		label, at int
		defined   [256]bool
	}
	var open []pending

	bl := ir.NewBuilder(0x1000)
	src := func() uint8 {
		k := next()
		if r := vpool[k%len(vpool)]; k&0x80 != 0 && defined[r] {
			return r
		}
		return uint8(k % (rawisa.RegFlags + 1)) // zero and the guest registers
	}
	dst := func() uint8 {
		k := next()
		if k&0x80 != 0 {
			r := vpool[k%len(vpool)]
			defined[r] = true
			return r
		}
		return uint8(rawisa.RegEAX + k%rawisa.RegFlags)
	}
	imm := func() int32 { return int32(int8(next()))<<(next()%9) | int32(next()&1) }

	alu3 := []rawisa.Op{rawisa.ADD, rawisa.SUB, rawisa.AND, rawisa.OR, rawisa.XOR, rawisa.NOR,
		rawisa.SLT, rawisa.SLTU, rawisa.SLL, rawisa.SRL, rawisa.SRA}
	aluI := []rawisa.Op{rawisa.ADDI, rawisa.ANDI, rawisa.ORI, rawisa.XORI, rawisa.SLTI, rawisa.SLTIU}
	shI := []rawisa.Op{rawisa.SLLI, rawisa.SRLI, rawisa.SRAI}
	loads := []rawisa.Op{rawisa.GLB, rawisa.GLBU, rawisa.GLH, rawisa.GLHU, rawisa.GLW}
	stores := []rawisa.Op{rawisa.GSB, rawisa.GSH, rawisa.GSW}
	branches := []rawisa.Op{rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ}

	n := 4 + next()%60
	for i := 0; i < n; i++ {
		for k := 0; k < len(open); {
			if open[k].at > i {
				k++
				continue
			}
			bl.Bind(open[k].label)
			for r := range defined {
				defined[r] = defined[r] && open[k].defined[r]
			}
			open = append(open[:k], open[k+1:]...)
		}
		switch k := next(); k % 16 {
		case 0, 1, 2, 3:
			rs, rt := src(), src()
			bl.Op3(alu3[k/16%len(alu3)], dst(), rs, rt)
		case 4, 5:
			rs := src()
			op := aluI[k/16%len(aluI)]
			v := imm()
			if op == rawisa.ANDI || op == rawisa.ORI || op == rawisa.XORI {
				v &= rawisa.MaxUImm
			} else if !rawisa.FitsSImm(v) {
				v = int32(int16(v))
			}
			bl.OpI(op, dst(), rs, v)
		case 6:
			rs := src()
			bl.OpI(shI[k/16%len(shI)], dst(), rs, int32(next()%32))
		case 7:
			bl.LoadImm(dst(), uint32(imm())*uint32(1+next()))
		case 8:
			rs := src()
			bl.Move(dst(), rs)
		case 9, 10:
			rs := src()
			bl.Emit(rawisa.Inst{Op: loads[k/16%len(loads)], Rd: dst(), Rs: rs})
		case 11:
			bl.Emit(rawisa.Inst{Op: stores[k/16%len(stores)], Rs: src(), Rt: src()})
		case 12:
			bl.Emit(rawisa.Inst{Op: rawisa.MULT + rawisa.Op(k/16%2), Rs: src(), Rt: src()})
			bl.Emit(rawisa.Inst{Op: rawisa.MFHI + rawisa.Op(k/32%2), Rd: dst()})
		case 13:
			if k&16 != 0 {
				bl.Emit(rawisa.Inst{Op: rawisa.SYSC})
			} else {
				bl.Emit(rawisa.Inst{Op: rawisa.ASSIST, Imm: int32(k)})
			}
		default:
			l := bl.NewLabel()
			br := rawisa.Inst{Op: branches[k/16%len(branches)], Rs: src()}
			if br.Op == rawisa.BEQ || br.Op == rawisa.BNE {
				br.Rt = src()
			}
			bl.EmitBranch(br, l)
			open = append(open, pending{label: l, at: i + 1 + next()%8, defined: defined})
			if k&0x80 != 0 {
				bl.ExitImm(0x2000 + uint32(i)) // an early exit the branch may skip
			}
		}
	}
	for _, p := range open {
		bl.Bind(p.label)
	}
	bl.ExitImm(0x3000)
	return bl.Finish(0, 1)
}

func runBlock(code []rawisa.Word, seed int64) (regs [rawisa.RegFlags + 1]uint32, mem [4096]byte, nextPC uint32, err error) {
	r := rand.New(rand.NewSource(seed))
	env := &fuzzEnv{}
	r.Read(env.mem[:])
	cpu := &rawexec.CPU{}
	for i := 1; i < rawisa.NumRegs; i++ {
		cpu.R[i] = r.Uint32() >> (r.Intn(4) * 8) // temporaries start as garbage too
	}
	exit, err := rawexec.Exec(cpu, code, 0, &env.clk, env, 10_000)
	copy(regs[:], cpu.R[:])
	return regs, env.mem, exit.NextPC, err
}

// addOptSeeds passes the seed inputs of the optimizer's fuzz targets to
// add: generator streams, each with the register-file seed
// FuzzOptPreservesSemantics runs it from.
func addOptSeeds(add func(data []byte, seed int64)) {
	add([]byte{}, 1)
	add([]byte("\x20\x81\x01\x02\x84\x08\x81\x85\x99\x81\x82\x1e\x81\x00\x03\x90\x83\x81\x0b\x81\x82"), 2)
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 24; i++ {
		data := make([]byte, 40+r.Intn(400))
		r.Read(data)
		add(data, int64(i))
	}
}

// FuzzOptPreservesSemantics executes generated blocks before and after
// the optimizer, from the same random register file and memory, and
// requires the same guest registers, guest memory and exit. Every input
// of a run goes through the same optimizer and allocator scratch, as a
// translator's blocks do, so whatever one block leaves in the tables is
// there when the next is optimized.
func FuzzOptPreservesSemantics(f *testing.F) {
	var (
		scratch  Scratch
		allocate codegen.Scratch
	)
	addOptSeeds(func(data []byte, seed int64) { f.Add(data, seed) })
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		b, err := genBlock(data)
		if err != nil {
			t.Fatalf("generator built an invalid block: %v", err)
		}
		plain, err := allocate.Finalize(b)
		if errors.Is(err, codegen.ErrRegPressure) {
			t.Skip()
		}
		if err != nil {
			t.Fatalf("finalize: %v\n%s", err, b)
		}
		before := b.String()
		scratch.Run(b)
		opted, err := allocate.Finalize(b)
		if err != nil {
			t.Fatalf("finalize after opt: %v\n%s", err, b)
		}
		r1, m1, pc1, err1 := runBlock(plain, seed)
		r2, m2, pc2, err2 := runBlock(opted, seed)
		if err1 != nil || err2 != nil {
			t.Fatalf("exec: plain %v, optimized %v\n%s", err1, err2, before)
		}
		if r1 != r2 || m1 != m2 || pc1 != pc2 {
			t.Fatalf("optimizer changed the outcome: regs %x vs %x, exit %#x vs %#x, memory equal %v\nbefore:\n%safter:\n%s",
				r1, r2, pc1, pc2, m1 == m2, before, b)
		}
	})
}
