package rawexec

import (
	"fmt"

	"tilevm/internal/rawisa"
)

// Program is an instruction memory: blocks appended one after another,
// chain sites patched in place. It holds host code in the tile's 32-bit
// words, the one form the translator emits it in, and every control
// transfer in that form is relative, so code means the same at any
// index: a translated block is copied in with Append. Indices count
// words. The L1 code cache owns the Program the execution tile runs.
type Program struct {
	code []rawisa.Word
}

// Len returns the number of words.
func (p *Program) Len() int { return len(p.code) }

// Reset empties the program. The backing store is kept for reuse.
func (p *Program) Reset() { p.code = p.code[:0] }

// Append copies code to the end of the program and returns the index
// of its first word.
func (p *Program) Append(code []rawisa.Word) int {
	p.code = append(p.code, code...)
	return len(p.code) - len(code)
}

// Chain patches the CHAIN at index site into a jump to index target:
// its first word becomes a J, and the guest PC word after it is left
// in place, never reached.
func (p *Program) Chain(site, target int) {
	w, ok := rawisa.JumpWord(target - site - 1)
	if !ok {
		panic(fmt.Sprintf("rawexec: chain from %d to %d is out of jump range", site, target))
	}
	p.code[site] = w
}

// Sync extends the program to cover arena, copying only
// arena[p.Len():].
func (p *Program) Sync(arena []rawisa.Word) {
	if len(arena) > len(p.code) {
		p.code = append(p.code, arena[len(p.code):]...)
	}
}

// Exec runs the program starting at index start until an exit
// instruction. Each arm takes what its opcode needs from the word as it
// goes: its registers, its immediate extended as the opcode wants it
// (LUI's shift, the zero-extension of the logical immediates, the 5-bit
// shift count), the branch target, the access width and sign of a
// guest load or store, and, for EXITI, CHAIN and ASSIST, the guest PC
// in the word after it. Virtual time is accumulated in a local counter
// and flushed to the Clock only at Env calls and block exits, so the
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
		w := code[pcIdx]
		insts++
		now++
		next := pcIdx + 1 // branch and jump offsets count from here

		switch w.Op() {
		case rawisa.NOP:
		case rawisa.LUI:
			def(w.Rd(), w.UImm()<<16)
		case rawisa.ADDI:
			def(w.Rd(), use(w.Rs())+uint32(w.SImm()))
		case rawisa.ANDI:
			def(w.Rd(), use(w.Rs())&w.UImm())
		case rawisa.ORI:
			def(w.Rd(), use(w.Rs())|w.UImm())
		case rawisa.XORI:
			def(w.Rd(), use(w.Rs())^w.UImm())
		case rawisa.SLTI:
			def(w.Rd(), b2u(int32(use(w.Rs())) < w.SImm()))
		case rawisa.SLTIU:
			def(w.Rd(), b2u(use(w.Rs()) < uint32(w.SImm())))
		case rawisa.SLLI:
			def(w.Rd(), use(w.Rs())<<(w.UImm()&31))
		case rawisa.SRLI:
			def(w.Rd(), use(w.Rs())>>(w.UImm()&31))
		case rawisa.SRAI:
			def(w.Rd(), uint32(int32(use(w.Rs()))>>(w.UImm()&31)))

		case rawisa.ADD:
			def(w.Rd(), use(w.Rs())+use(w.Rt()))
		case rawisa.SUB:
			def(w.Rd(), use(w.Rs())-use(w.Rt()))
		case rawisa.AND:
			def(w.Rd(), use(w.Rs())&use(w.Rt()))
		case rawisa.OR:
			def(w.Rd(), use(w.Rs())|use(w.Rt()))
		case rawisa.XOR:
			def(w.Rd(), use(w.Rs())^use(w.Rt()))
		case rawisa.NOR:
			def(w.Rd(), ^(use(w.Rs()) | use(w.Rt())))
		case rawisa.SLT:
			def(w.Rd(), b2u(int32(use(w.Rs())) < int32(use(w.Rt()))))
		case rawisa.SLTU:
			def(w.Rd(), b2u(use(w.Rs()) < use(w.Rt())))
		case rawisa.SLL:
			def(w.Rd(), use(w.Rt())<<(use(w.Rs())&31))
		case rawisa.SRL:
			def(w.Rd(), use(w.Rt())>>(use(w.Rs())&31))
		case rawisa.SRA:
			def(w.Rd(), uint32(int32(use(w.Rt()))>>(use(w.Rs())&31)))

		case rawisa.MULT:
			wide := int64(int32(use(w.Rs()))) * int64(int32(use(w.Rt())))
			cpu.LO, cpu.HI = uint32(wide), uint32(uint64(wide)>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.MULTU:
			wide := uint64(use(w.Rs())) * uint64(use(w.Rt()))
			cpu.LO, cpu.HI = uint32(wide), uint32(wide>>32)
			cpu.readyMD = now + MulLatency
		case rawisa.DIV:
			d := int32(use(w.Rt()))
			n := int32(use(w.Rs()))
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
			d := use(w.Rt())
			if d == 0 {
				flush()
				return Exit{}, &Fault{Index: pcIdx, Reason: "integer divide by zero"}
			}
			n := use(w.Rs())
			cpu.LO, cpu.HI = n/d, n%d
			cpu.readyMD = now + MulLatency
		case rawisa.MFHI:
			defAt(w.Rd(), cpu.HI, cpu.readyMD)
		case rawisa.MFLO:
			defAt(w.Rd(), cpu.LO, cpu.readyMD)

		case rawisa.LW:
			addr := (use(w.Rs()) + uint32(w.SImm())) / 4 % scratchWords
			defAt(w.Rd(), cpu.Scratch[addr], now+2)
		case rawisa.SW:
			addr := (use(w.Rs()) + uint32(w.SImm())) / 4 % scratchWords
			cpu.Scratch[addr] = use(w.RtB())

		case rawisa.BEQ:
			if use(w.Rs()) == use(w.RtB()) {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.BNE:
			if use(w.Rs()) != use(w.RtB()) {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.BLEZ:
			if int32(use(w.Rs())) <= 0 {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.BGTZ:
			if int32(use(w.Rs())) > 0 {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.BLTZ:
			if int32(use(w.Rs())) < 0 {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.BGEZ:
			if int32(use(w.Rs())) >= 0 {
				next += int(w.SImm())
				now += BranchPenalty
			}
		case rawisa.J:
			if env.Interrupted(now) {
				// Do not follow the chain: the target block may have
				// been invalidated, or a checkpoint is waiting at the
				// dispatch loop. Hand the entry index back to the
				// dispatch loop for resolution.
				flush()
				return Exit{Interrupted: true, ChainIdx: next + int(w.JOff()), Insts: insts}, nil
			}
			next += int(w.JOff())
			now += BranchPenalty
		case rawisa.JAL:
			def(rawisa.RegLink, uint32(pcIdx+1))
			next += int(w.JOff())
			now += BranchPenalty
		case rawisa.JR:
			next = int(use(w.Rs()))
			now += BranchPenalty

		case rawisa.GLB, rawisa.GLBU, rawisa.GLH, rawisa.GLHU, rawisa.GLW:
			op := w.Op()
			addr := use(w.Rs())
			flush()
			v, readyAt := env.GuestLoad(addr, uint8(op.GuestAccessBytes()), op == rawisa.GLB || op == rawisa.GLH)
			resync()
			defAt(w.Rd(), v, readyAt)
		case rawisa.GSB, rawisa.GSH, rawisa.GSW:
			addr := use(w.Rs())
			v := use(w.RtB())
			flush()
			env.GuestStore(addr, v, uint8(w.Op().GuestAccessBytes()))
			resync()

		case rawisa.SYSC:
			flush()
			env.Syscall(cpu)
			if env.Stopped() {
				return Exit{NextPC: 0, Insts: insts}, nil
			}
			resync()

		case rawisa.ASSIST, rawisa.EXITI, rawisa.CHAIN:
			flush()
			if next >= len(code) {
				return Exit{}, &Fault{Index: pcIdx, Reason: "guest PC word outside code arena"}
			}
			guestPC := uint32(code[next])
			next++
			if w.Op() != rawisa.ASSIST {
				return Exit{NextPC: guestPC, Insts: insts}, nil
			}
			if err := env.Assist(guestPC, cpu); err != nil {
				return Exit{}, &Fault{Index: pcIdx, Reason: err.Error()}
			}
			resync()
		case rawisa.EXITR:
			next := use(w.Rs())
			flush()
			return Exit{NextPC: next, Insts: insts}, nil

		default:
			flush()
			return Exit{}, &Fault{Index: pcIdx, Reason: fmt.Sprintf("bad opcode %v", w.Op())}
		}
		pcIdx = next
	}
}
