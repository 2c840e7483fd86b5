package rawexec

import (
	"fmt"

	"tilevm/internal/rawisa"
)

// Program is an instruction memory: blocks appended one after another,
// chain sites patched in place. It holds host code in the one form the
// translator emits it in, and every control transfer in that form is
// relative, so code means the same at any index: a translated block is
// copied in with Append. The L1 code cache owns the Program the
// execution tile runs.
type Program struct {
	code []rawisa.Inst
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.code) }

// Reset empties the program. The backing store is kept for reuse.
func (p *Program) Reset() { p.code = p.code[:0] }

// Append copies code to the end of the program and returns the index
// of its first instruction.
func (p *Program) Append(code []rawisa.Inst) int {
	p.code = append(p.code, code...)
	return len(p.code) - len(code)
}

// Chain patches the CHAIN at index site into a jump to index target.
func (p *Program) Chain(site, target int) {
	p.code[site] = rawisa.Inst{Op: rawisa.J, Imm: int32(target - site - 1)}
}

// Sync extends the program to cover arena, copying only
// arena[p.Len():].
func (p *Program) Sync(arena []rawisa.Inst) {
	if len(arena) > len(p.code) {
		p.code = append(p.code, arena[len(p.code):]...)
	}
}

// Exec runs the program starting at index start until an exit
// instruction. Each arm derives what its opcode needs from Imm as it
// goes: LUI's shift, the zero-extension of the logical immediates, the
// 5-bit shift count, the branch target, the access width and sign of a
// guest load or store. Virtual time is accumulated in a local counter and
// flushed to the Clock only at Env calls and block exits, so the
// per-instruction cost is plain integer arithmetic instead of interface
// method dispatch; the flushed totals (and therefore all timing) are
// bit-identical to the unbatched path.
func (p *Program) Exec(cpu *CPU, start int, clk Clock, env Env, maxInsts uint64) (Exit, error) {
	pcIdx := start
	var insts uint64
	code := p.code

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
		if pcIdx < 0 || pcIdx >= len(code) {
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: "execution ran outside code arena"}
		}
		if maxInsts != 0 && insts >= maxInsts {
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: "instruction budget exhausted"}
		}
		in := &code[pcIdx]
		insts++
		now++
		next := pcIdx + 1 // branch and jump offsets count from here

		switch in.Op {
		case rawisa.NOP:
		case rawisa.LUI:
			def(in.Rd, uint32(in.Imm)<<16)
		case rawisa.ADDI:
			def(in.Rd, use(in.Rs)+uint32(in.Imm))
		case rawisa.ANDI:
			def(in.Rd, use(in.Rs)&uint32(uint16(in.Imm)))
		case rawisa.ORI:
			def(in.Rd, use(in.Rs)|uint32(uint16(in.Imm)))
		case rawisa.XORI:
			def(in.Rd, use(in.Rs)^uint32(uint16(in.Imm)))
		case rawisa.SLTI:
			def(in.Rd, b2u(int32(use(in.Rs)) < in.Imm))
		case rawisa.SLTIU:
			def(in.Rd, b2u(use(in.Rs) < uint32(in.Imm)))
		case rawisa.SLLI:
			def(in.Rd, use(in.Rs)<<(uint32(in.Imm)&31))
		case rawisa.SRLI:
			def(in.Rd, use(in.Rs)>>(uint32(in.Imm)&31))
		case rawisa.SRAI:
			def(in.Rd, uint32(int32(use(in.Rs))>>(uint32(in.Imm)&31)))

		case rawisa.ADD:
			def(in.Rd, use(in.Rs)+use(in.Rt))
		case rawisa.SUB:
			def(in.Rd, use(in.Rs)-use(in.Rt))
		case rawisa.AND:
			def(in.Rd, use(in.Rs)&use(in.Rt))
		case rawisa.OR:
			def(in.Rd, use(in.Rs)|use(in.Rt))
		case rawisa.XOR:
			def(in.Rd, use(in.Rs)^use(in.Rt))
		case rawisa.NOR:
			def(in.Rd, ^(use(in.Rs) | use(in.Rt)))
		case rawisa.SLT:
			def(in.Rd, b2u(int32(use(in.Rs)) < int32(use(in.Rt))))
		case rawisa.SLTU:
			def(in.Rd, b2u(use(in.Rs) < use(in.Rt)))
		case rawisa.SLL:
			def(in.Rd, use(in.Rt)<<(use(in.Rs)&31))
		case rawisa.SRL:
			def(in.Rd, use(in.Rt)>>(use(in.Rs)&31))
		case rawisa.SRA:
			def(in.Rd, uint32(int32(use(in.Rt))>>(use(in.Rs)&31)))

		case rawisa.MULT:
			wide := int64(int32(use(in.Rs))) * int64(int32(use(in.Rt)))
			cpu.LO, cpu.HI = uint32(wide), uint32(uint64(wide)>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.MULTU:
			wide := uint64(use(in.Rs)) * uint64(use(in.Rt))
			cpu.LO, cpu.HI = uint32(wide), uint32(wide>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.DIV:
			d := int32(use(in.Rt))
			n := int32(use(in.Rs))
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
			d := use(in.Rt)
			if d == 0 {
				flush()
				return Exit{}, &Fault{Index: pcIdx, Reason: "integer divide by zero"}
			}
			n := use(in.Rs)
			cpu.LO, cpu.HI = n/d, n%d
			cpu.readyMD = now + MulLatency
		case rawisa.MFHI:
			defAt(in.Rd, cpu.HI, cpu.readyMD)
		case rawisa.MFLO:
			defAt(in.Rd, cpu.LO, cpu.readyMD)

		case rawisa.LW:
			addr := (use(in.Rs) + uint32(in.Imm)) / 4 % scratchWords
			defAt(in.Rd, cpu.Scratch[addr], now+2)
		case rawisa.SW:
			addr := (use(in.Rs) + uint32(in.Imm)) / 4 % scratchWords
			cpu.Scratch[addr] = use(in.Rt)

		case rawisa.BEQ:
			if use(in.Rs) == use(in.Rt) {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.BNE:
			if use(in.Rs) != use(in.Rt) {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.BLEZ:
			if int32(use(in.Rs)) <= 0 {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.BGTZ:
			if int32(use(in.Rs)) > 0 {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.BLTZ:
			if int32(use(in.Rs)) < 0 {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.BGEZ:
			if int32(use(in.Rs)) >= 0 {
				next += int(in.Imm)
				now += BranchPenalty
			}
		case rawisa.J:
			if env.Interrupted() {
				// Do not follow the chain: the target block may have
				// been invalidated. Hand the entry index back to the
				// dispatch loop for resolution.
				flush()
				return Exit{Interrupted: true, ChainIdx: next + int(in.Imm), Insts: insts}, nil
			}
			next += int(in.Imm)
			now += BranchPenalty
		case rawisa.JAL:
			def(rawisa.RegLink, uint32(pcIdx+1))
			next += int(in.Imm)
			now += BranchPenalty
		case rawisa.JR:
			next = int(use(in.Rs))
			now += BranchPenalty

		case rawisa.GLB, rawisa.GLBU, rawisa.GLH, rawisa.GLHU, rawisa.GLW:
			addr := use(in.Rs)
			flush()
			v, readyAt := env.GuestLoad(addr, uint8(in.Op.GuestAccessBytes()), in.Op == rawisa.GLB || in.Op == rawisa.GLH)
			resync()
			defAt(in.Rd, v, readyAt)
		case rawisa.GSB, rawisa.GSH, rawisa.GSW:
			addr := use(in.Rs)
			v := use(in.Rt)
			flush()
			env.GuestStore(addr, v, uint8(in.Op.GuestAccessBytes()))
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
			if err := env.Assist(in.GuestPC(), cpu); err != nil {
				return Exit{}, &Fault{Index: pcIdx, Reason: err.Error()}
			}
			resync()

		case rawisa.EXITI, rawisa.CHAIN:
			flush()
			return Exit{NextPC: in.GuestPC(), Insts: insts}, nil
		case rawisa.EXITR:
			next := use(in.Rs)
			flush()
			return Exit{NextPC: next, Insts: insts}, nil

		default:
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: fmt.Sprintf("bad opcode %v", in.Op)}
		}
		pcIdx = next
	}
}
