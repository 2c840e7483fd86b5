package rawexec

import (
	"fmt"
	"slices"
	"unsafe"

	"tilevm/internal/rawisa"
)

// uop is one predecoded host instruction: operands unpacked and the
// one value its opcode needs pre-computed, so the dispatch loop does no
// per-visit re-derivation. imm is the extended immediate of an ALU or
// host-memory op, the displacement from the instruction itself to the
// target of a branch or direct jump, the guest PC of EXITI/CHAIN/ASSIST,
// or the access bytes (bit 8: signed) of GL*/GS* — never two of them,
// and every resident translation carries these 8 bytes per instruction.
type uop struct {
	op         rawisa.Op
	rd, rs, rt uint8
	imm        uint32
}

func (u *uop) rel() int { return int(int32(u.imm)) }

const signedLoad = 1 << 8

// Program is an instruction memory in predecoded form: blocks appended
// one after another, chain sites patched in place. Every control
// transfer in it is relative, so code means the same at any index: a
// block predecoded on its own (Sync into an empty Program, once, when
// it is translated) is copied in with Append. The L1 code cache owns
// the Program the execution tile runs.
type Program struct {
	ops []uop
}

// Len returns the number of predecoded instructions.
func (p *Program) Len() int { return len(p.ops) }

// Bytes returns the storage the predecoded instructions occupy.
func (p *Program) Bytes() int { return len(p.ops) * int(unsafe.Sizeof(uop{})) }

// Reset empties the program. The backing store is kept for reuse.
func (p *Program) Reset() { p.ops = p.ops[:0] }

// Append copies q's code to the end of the program and returns the
// index of its first instruction.
func (p *Program) Append(q *Program) int {
	p.ops = append(p.ops, q.ops...)
	return len(p.ops) - len(q.ops)
}

// Chain patches the CHAIN at index site into a jump to index target.
func (p *Program) Chain(site, target int) {
	p.ops[site] = uop{op: rawisa.J, imm: uint32(int32(target - site))}
}

// Sync extends the program to cover arena, predecoding only
// arena[p.Len():]; J/JAL targets are absolute arena indices.
func (p *Program) Sync(arena []rawisa.Inst) {
	p.ops = slices.Grow(p.ops, max(0, len(arena)-len(p.ops)))
	for i := len(p.ops); i < len(arena); i++ {
		p.ops = append(p.ops, predecode(arena[i], i))
	}
}

// predecode converts the instruction at index i of its code sequence.
func predecode(in rawisa.Inst, i int) uop {
	u := uop{op: in.Op, rd: in.Rd, rs: in.Rs, rt: in.Rt, imm: uint32(in.Imm)}
	switch in.Op {
	case rawisa.LUI:
		u.imm = uint32(in.Imm) << 16
	case rawisa.ANDI, rawisa.ORI, rawisa.XORI:
		u.imm = uint32(uint16(in.Imm))
	case rawisa.SLLI, rawisa.SRLI, rawisa.SRAI:
		u.imm = uint32(in.Imm & 31)
	case rawisa.BEQ, rawisa.BNE, rawisa.BLEZ, rawisa.BGTZ, rawisa.BLTZ, rawisa.BGEZ:
		u.imm = uint32(1 + in.Imm)
	case rawisa.J, rawisa.JAL:
		u.imm = uint32(int32(in.Target) - int32(i))
	case rawisa.GLB, rawisa.GLH:
		u.imm = uint32(in.Op.GuestAccessBytes()) | signedLoad
	case rawisa.GLBU, rawisa.GLHU, rawisa.GLW, rawisa.GSB, rawisa.GSH, rawisa.GSW:
		u.imm = uint32(in.Op.GuestAccessBytes())
	case rawisa.EXITI, rawisa.CHAIN, rawisa.ASSIST:
		u.imm = in.Target
	}
	return u
}

// Exec runs predecoded host code starting at index start until an exit
// instruction, exactly as the arena-walking Exec but without per-visit
// decode work. Virtual time is accumulated in a local counter and
// flushed to the Clock only at Env calls and block exits, so the
// per-instruction cost is plain integer arithmetic instead of interface
// method dispatch; the flushed totals (and therefore all timing) are
// bit-identical to the unbatched path.
func (p *Program) Exec(cpu *CPU, start int, clk Clock, env Env, maxInsts uint64) (Exit, error) {
	pcIdx := start
	var insts uint64
	ops := p.ops

	// now is the tile's local virtual time; reported is the prefix
	// already pushed to clk. flush() syncs before any external effect.
	now := clk.Now()
	reported := now
	flush := func() {
		if now > reported {
			clk.Tick(now - reported)
			reported = now
		}
	}
	resync := func() {
		now = clk.Now()
		reported = now
	}

	use := func(r uint8) uint32 {
		if t := cpu.ready[r]; t > now {
			now = t
		}
		return cpu.R[r]
	}
	def := func(r uint8, v uint32) {
		if r != 0 {
			cpu.R[r] = v
			cpu.ready[r] = 0
		}
	}
	defAt := func(r uint8, v uint32, ready uint64) {
		if r != 0 {
			cpu.R[r] = v
			cpu.ready[r] = ready
		}
	}

	for {
		if pcIdx < 0 || pcIdx >= len(ops) {
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: "execution ran outside code arena"}
		}
		if maxInsts != 0 && insts >= maxInsts {
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: "instruction budget exhausted"}
		}
		in := &ops[pcIdx]
		insts++
		now++
		next := pcIdx + 1

		switch in.op {
		case rawisa.NOP:
		case rawisa.LUI:
			def(in.rd, in.imm)
		case rawisa.ADDI:
			def(in.rd, use(in.rs)+in.imm)
		case rawisa.ANDI:
			def(in.rd, use(in.rs)&in.imm)
		case rawisa.ORI:
			def(in.rd, use(in.rs)|in.imm)
		case rawisa.XORI:
			def(in.rd, use(in.rs)^in.imm)
		case rawisa.SLTI:
			def(in.rd, b2u(int32(use(in.rs)) < int32(in.imm)))
		case rawisa.SLTIU:
			def(in.rd, b2u(use(in.rs) < in.imm))
		case rawisa.SLLI:
			def(in.rd, use(in.rs)<<in.imm)
		case rawisa.SRLI:
			def(in.rd, use(in.rs)>>in.imm)
		case rawisa.SRAI:
			def(in.rd, uint32(int32(use(in.rs))>>in.imm))

		case rawisa.ADD:
			def(in.rd, use(in.rs)+use(in.rt))
		case rawisa.SUB:
			def(in.rd, use(in.rs)-use(in.rt))
		case rawisa.AND:
			def(in.rd, use(in.rs)&use(in.rt))
		case rawisa.OR:
			def(in.rd, use(in.rs)|use(in.rt))
		case rawisa.XOR:
			def(in.rd, use(in.rs)^use(in.rt))
		case rawisa.NOR:
			def(in.rd, ^(use(in.rs) | use(in.rt)))
		case rawisa.SLT:
			def(in.rd, b2u(int32(use(in.rs)) < int32(use(in.rt))))
		case rawisa.SLTU:
			def(in.rd, b2u(use(in.rs) < use(in.rt)))
		case rawisa.SLL:
			def(in.rd, use(in.rt)<<(use(in.rs)&31))
		case rawisa.SRL:
			def(in.rd, use(in.rt)>>(use(in.rs)&31))
		case rawisa.SRA:
			def(in.rd, uint32(int32(use(in.rt))>>(use(in.rs)&31)))

		case rawisa.MULT:
			wide := int64(int32(use(in.rs))) * int64(int32(use(in.rt)))
			cpu.LO, cpu.HI = uint32(wide), uint32(uint64(wide)>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.MULTU:
			wide := uint64(use(in.rs)) * uint64(use(in.rt))
			cpu.LO, cpu.HI = uint32(wide), uint32(wide>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.DIV:
			d := int32(use(in.rt))
			n := int32(use(in.rs))
			if d == 0 {
				flush()
				return Exit{}, &Fault{Index: pcIdx, Reason: "integer divide by zero"}
			}
			if n == -1<<31 && d == -1 {
				cpu.LO, cpu.HI = uint32(n), 0
			} else {
				cpu.LO, cpu.HI = uint32(n/d), uint32(n%d)
			}
			cpu.readyMD = now + MulLatency
		case rawisa.DIVU:
			d := use(in.rt)
			if d == 0 {
				flush()
				return Exit{}, &Fault{Index: pcIdx, Reason: "integer divide by zero"}
			}
			n := use(in.rs)
			cpu.LO, cpu.HI = n/d, n%d
			cpu.readyMD = now + MulLatency
		case rawisa.MFHI:
			defAt(in.rd, cpu.HI, cpu.readyMD)
		case rawisa.MFLO:
			defAt(in.rd, cpu.LO, cpu.readyMD)

		case rawisa.LW:
			addr := (use(in.rs) + in.imm) / 4 % scratchWords
			defAt(in.rd, cpu.Scratch[addr], now+2)
		case rawisa.SW:
			addr := (use(in.rs) + in.imm) / 4 % scratchWords
			cpu.Scratch[addr] = use(in.rt)

		case rawisa.BEQ:
			if use(in.rs) == use(in.rt) {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.BNE:
			if use(in.rs) != use(in.rt) {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.BLEZ:
			if int32(use(in.rs)) <= 0 {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.BGTZ:
			if int32(use(in.rs)) > 0 {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.BLTZ:
			if int32(use(in.rs)) < 0 {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.BGEZ:
			if int32(use(in.rs)) >= 0 {
				next = pcIdx + in.rel()
				now += BranchPenalty
			}
		case rawisa.J:
			if env.Interrupted() {
				// Do not follow the chain: the target block may have
				// been invalidated. Hand the entry index back to the
				// dispatch loop for resolution.
				flush()
				return Exit{Interrupted: true, ChainIdx: pcIdx + in.rel(), Insts: insts}, nil
			}
			next = pcIdx + in.rel()
			now += BranchPenalty
		case rawisa.JAL:
			def(rawisa.RegLink, uint32(pcIdx+1))
			next = pcIdx + in.rel()
			now += BranchPenalty
		case rawisa.JR:
			next = int(use(in.rs))
			now += BranchPenalty

		case rawisa.GLB, rawisa.GLBU, rawisa.GLH, rawisa.GLHU, rawisa.GLW:
			addr := use(in.rs)
			flush()
			v, readyAt := env.GuestLoad(addr, uint8(in.imm), in.imm&signedLoad != 0)
			resync()
			defAt(in.rd, v, readyAt)
		case rawisa.GSB, rawisa.GSH, rawisa.GSW:
			addr := use(in.rs)
			v := use(in.rt)
			flush()
			env.GuestStore(addr, v, uint8(in.imm))
			resync()

		case rawisa.SYSC:
			flush()
			env.Syscall(cpu)
			if env.Stopped() {
				return Exit{NextPC: 0, Insts: insts}, nil
			}
			resync()

		case rawisa.ASSIST:
			flush()
			if err := env.Assist(in.imm, cpu); err != nil {
				return Exit{}, &Fault{Index: pcIdx, Reason: err.Error()}
			}
			resync()

		case rawisa.EXITI, rawisa.CHAIN:
			flush()
			return Exit{NextPC: in.imm, Insts: insts}, nil
		case rawisa.EXITR:
			next := use(in.rs)
			flush()
			return Exit{NextPC: next, Insts: insts}, nil

		default:
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: fmt.Sprintf("bad opcode %v", in.op)}
		}
		pcIdx = next
	}
}
