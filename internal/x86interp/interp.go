// Package x86interp is the golden-model executor for the guest ISA: a
// straightforward instruction-at-a-time interpreter over guest.Process
// state. It defines the semantics the translator must reproduce
// (differential tests compare the two after every block) and drives the
// Pentium III baseline timing model through its memory-access hook.
package x86interp

import (
	"fmt"

	"tilevm/internal/guest"
	"tilevm/internal/x86"
)

// Fault is a guest execution error (undecodable instruction, division
// by zero, HLT in userland).
type Fault struct {
	PC     uint32
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("x86interp: fault at %#x: %s", f.PC, f.Reason)
}

// Interp executes a guest process.
type Interp struct {
	P *guest.Process

	// Steps counts retired guest instructions.
	Steps uint64
	// OnMem, if set, observes every data-memory access (after effective
	// address computation, before the access itself).
	OnMem func(addr uint32, size uint8, write bool)

	// The decode cache. Every instruction decoded since the cache was
	// last dropped lives in arena, decoded once. A 4 KB page that holds
	// a decoded instruction, or that one spans into, has a table from
	// page offset to arena index; lastTab is the table of lastPage, the
	// page of the previous fetch, so straight-line code takes no map
	// lookup.
	arena    []x86.Inst
	pages    map[uint32]*pageTable
	lastPage uint32
	lastTab  *pageTable
}

const (
	smcPageShift = 12
	smcPageMask  = 1<<smcPageShift - 1
)

// pageTable maps a page offset to 1 + the arena index of the
// instruction decoded there, or 0 if none is.
type pageTable [1 << smcPageShift]int32

// New builds an interpreter for a loaded process.
func New(p *guest.Process) *Interp {
	return &Interp{P: p, pages: make(map[uint32]*pageTable)}
}

// noteStore drops the decode cache when a store lands in a page that
// has a table (self-modifying code). That is rare, so the whole cache
// goes rather than the overwritten instructions.
func (it *Interp) noteStore(addr uint32, size uint8) {
	first := addr >> smcPageShift
	last := (addr + uint32(size) - 1) >> smcPageShift
	for pg := first; pg <= last; pg++ {
		if it.pages[pg] != nil {
			// The instruction being executed stays readable: nothing
			// reuses its arena slot before the next fetch.
			it.arena = it.arena[:0]
			clear(it.pages)
			it.lastTab = nil
			return
		}
	}
}

func (it *Interp) fault(reason string) error {
	return &Fault{PC: it.P.PC, Reason: reason}
}

// fetch returns the instruction at PC, decoding it on first use. A
// decode that fails is not cached.
func (it *Interp) fetch() (*x86.Inst, error) {
	pc := it.P.PC
	pg := pc >> smcPageShift
	if it.lastTab == nil || pg != it.lastPage {
		it.lastTab, it.lastPage = it.pages[pg], pg
	}
	if it.lastTab != nil {
		if i := it.lastTab[pc&smcPageMask]; i != 0 {
			return &it.arena[i-1], nil
		}
	}
	in, err := x86.Decode(it.P.Mem.CodeWindow(pc, x86.MaxInstLen+4), pc)
	if err != nil {
		return nil, err
	}
	it.arena = append(it.arena, in)
	it.lastTab = it.table(pg)
	it.lastTab[pc&smcPageMask] = int32(len(it.arena))
	it.table((pc + uint32(in.Len) - 1) >> smcPageShift) // the page it spans into
	return &it.arena[len(it.arena)-1], nil
}

// table returns page pg's table, making it if the page has none.
func (it *Interp) table(pg uint32) *pageTable {
	tab := it.pages[pg]
	if tab == nil {
		tab = new(pageTable)
		it.pages[pg] = tab
	}
	return tab
}

// ea computes a memory operand's effective address.
func (it *Interp) ea(o x86.Operand) uint32 {
	addr := uint32(o.Disp)
	if o.Base != x86.NoIndex {
		addr += it.P.Reg(x86.Reg(o.Base))
	}
	if o.Index != x86.NoIndex {
		addr += it.P.Reg(x86.Reg(o.Index)) * uint32(o.Scale)
	}
	return addr
}

// read returns an operand's value, zero-extended to 32 bits.
func (it *Interp) read(o x86.Operand) uint32 {
	switch o.Kind {
	case x86.KReg:
		return it.P.RegSized(o.Reg, o.Size)
	case x86.KImm:
		return uint32(o.Imm) & x86.SizeMask(o.Size)
	case x86.KMem:
		addr := it.ea(o)
		if it.OnMem != nil {
			it.OnMem(addr, o.Size, false)
		}
		return it.P.Mem.ReadN(addr, o.Size)
	}
	panic("x86interp: read of empty operand")
}

// write stores a value to a register or memory operand.
func (it *Interp) write(o x86.Operand, v uint32) {
	switch o.Kind {
	case x86.KReg:
		it.P.SetRegSized(o.Reg, v&x86.SizeMask(o.Size), o.Size)
	case x86.KMem:
		addr := it.ea(o)
		if it.OnMem != nil {
			it.OnMem(addr, o.Size, true)
		}
		it.P.Mem.WriteN(addr, v, o.Size)
		it.noteStore(addr, o.Size)
	default:
		panic("x86interp: write to non-lvalue operand")
	}
}

func (it *Interp) push32(v uint32) {
	sp := it.P.Reg(x86.ESP) - 4
	it.P.SetReg(x86.ESP, sp)
	if it.OnMem != nil {
		it.OnMem(sp, 4, true)
	}
	it.P.Mem.Write32(sp, v)
	it.noteStore(sp, 4)
}

func (it *Interp) pop32() uint32 {
	sp := it.P.Reg(x86.ESP)
	if it.OnMem != nil {
		it.OnMem(sp, 4, false)
	}
	v := it.P.Mem.Read32(sp)
	it.P.SetReg(x86.ESP, sp+4)
	return v
}

// Step executes one instruction. It returns an error on a fault; guest
// exit is reported through P.Exited(), not as an error.
func (it *Interp) Step() error {
	p := it.P
	in, err := it.fetch()
	if err != nil {
		return err
	}
	next := in.Next()
	size := in.Dst.Size
	mask := x86.SizeMask(size)

	switch in.Op {
	case x86.MOV:
		it.write(in.Dst, it.read(in.Src))

	case x86.MOVZX:
		it.write(in.Dst, it.read(in.Src)) // read is already zero-extended

	case x86.MOVSX:
		v := it.read(in.Src)
		shift := 32 - uint32(in.Src.Size)*8
		it.write(in.Dst, uint32(int32(v<<shift)>>shift))

	case x86.LEA:
		it.write(in.Dst, it.ea(in.Src))

	case x86.XCHG:
		a, b := it.read(in.Dst), it.read(in.Src)
		it.write(in.Dst, b)
		it.write(in.Src, a)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.CMP:
		a, b := it.read(in.Dst), it.read(in.Src)
		var carry uint32
		if (in.Op == x86.ADC || in.Op == x86.SBB) && p.Flags&x86.FlagCF != 0 {
			carry = 1
		}
		var r uint32
		switch in.Op {
		case x86.ADD, x86.ADC:
			r = (a + b + carry) & mask
			p.Flags = x86.AddFlags(p.Flags, a, b, carry, size)
		default:
			r = (a - b - carry) & mask
			p.Flags = x86.SubFlags(p.Flags, a, b, carry, size)
		}
		if in.Op != x86.CMP {
			it.write(in.Dst, r)
		}

	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		a, b := it.read(in.Dst), it.read(in.Src)
		var r uint32
		switch in.Op {
		case x86.AND, x86.TEST:
			r = a & b
		case x86.OR:
			r = a | b
		case x86.XOR:
			r = a ^ b
		}
		r &= mask
		p.Flags = x86.LogicFlags(p.Flags, r, size)
		if in.Op != x86.TEST {
			it.write(in.Dst, r)
		}

	case x86.NOT:
		it.write(in.Dst, ^it.read(in.Dst)&mask)

	case x86.NEG:
		a := it.read(in.Dst)
		p.Flags = x86.NegFlags(p.Flags, a, size)
		it.write(in.Dst, (-a)&mask)

	case x86.INC:
		a := it.read(in.Dst)
		p.Flags = x86.IncFlags(p.Flags, a, size)
		it.write(in.Dst, (a+1)&mask)

	case x86.DEC:
		a := it.read(in.Dst)
		p.Flags = x86.DecFlags(p.Flags, a, size)
		it.write(in.Dst, (a-1)&mask)

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		if err := it.shift(in, size, mask); err != nil {
			return err
		}

	case x86.RCL, x86.RCR:
		it.rotateCarry(in, size, mask)

	case x86.SHLD, x86.SHRD:
		it.shiftDouble(in, size, mask)

	case x86.BT, x86.BTS, x86.BTR, x86.BTC:
		it.bitTest(in, size)

	case x86.BSF, x86.BSR:
		it.bitScan(in, size)

	case x86.CMPXCHG:
		a := p.RegSized(x86.EAX, size)
		dst := it.read(in.Dst)
		p.Flags = x86.SubFlags(p.Flags, a, dst, 0, size)
		if a == dst {
			it.write(in.Dst, it.read(in.Src))
		} else {
			p.SetRegSized(x86.EAX, dst, size)
		}

	case x86.XADD:
		a := it.read(in.Dst)
		b := it.read(in.Src)
		r := (a + b) & mask
		p.Flags = x86.AddFlags(p.Flags, a, b, 0, size)
		it.write(in.Src, a)
		it.write(in.Dst, r)

	case x86.IMUL:
		it.mul1(in, true)
	case x86.MUL:
		it.mul1(in, false)

	case x86.IMUL2:
		a := int32(it.read(in.Src))
		var b int32
		if in.Src2.Kind != x86.KNone {
			b = int32(it.read(in.Src2))
		} else {
			b = int32(it.read(in.Dst))
		}
		wide := int64(a) * int64(b)
		lo := uint32(wide)
		p.Flags = x86.MulFlags(p.Flags, lo, wide != int64(int32(lo)), size)
		it.write(in.Dst, lo)

	case x86.DIV, x86.IDIV:
		if err := it.div(in); err != nil {
			return err
		}

	case x86.CDQ:
		p.SetReg(x86.EDX, uint32(int32(p.Reg(x86.EAX))>>31))

	case x86.CWDE:
		if in.OpSize == 2 { // CBW: AX = sext(AL)
			p.SetReg16(x86.EAX, uint32(int32(int8(p.Reg8(x86.EAX)))))
		} else { // CWDE: EAX = sext(AX)
			p.SetReg(x86.EAX, uint32(int32(int16(p.Reg16(x86.EAX)))))
		}

	case x86.BSWAP:
		v := p.Reg(in.Dst.Reg)
		p.SetReg(in.Dst.Reg, v<<24|v>>24|(v&0xff00)<<8|(v>>8)&0xff00)

	case x86.PUSH:
		it.push32(it.read(in.Dst))

	case x86.POP:
		v := it.pop32()
		it.write(in.Dst, v)

	case x86.LEAVE:
		p.SetReg(x86.ESP, p.Reg(x86.EBP))
		p.SetReg(x86.EBP, it.pop32())

	case x86.CALL:
		it.push32(next)
		next = in.BranchTarget()

	case x86.CALLIND:
		target := it.read(in.Src)
		it.push32(next)
		next = target

	case x86.RET:
		next = it.pop32()
		if in.Dst.Kind == x86.KImm {
			p.SetReg(x86.ESP, p.Reg(x86.ESP)+uint32(in.Dst.Imm))
		}

	case x86.JMP:
		next = in.BranchTarget()

	case x86.JMPIND:
		next = it.read(in.Src)

	case x86.JCC:
		if in.Cond.Eval(p.Flags) {
			next = in.BranchTarget()
		}

	case x86.SETCC:
		v := uint32(0)
		if in.Cond.Eval(p.Flags) {
			v = 1
		}
		it.write(in.Dst, v)

	case x86.CMOVCC:
		if in.Cond.Eval(p.Flags) {
			it.write(in.Dst, it.read(in.Src))
		}

	case x86.MOVS, x86.STOS, x86.LODS, x86.SCAS, x86.CMPS:
		if err := it.stringOp(in); err != nil {
			return err
		}

	case x86.CLC:
		p.Flags &^= x86.FlagCF
	case x86.STC:
		p.Flags |= x86.FlagCF
	case x86.CMC:
		p.Flags ^= x86.FlagCF
	case x86.CLD:
		p.Flags &^= x86.FlagDF
	case x86.STD:
		p.Flags |= x86.FlagDF

	case x86.SAHF:
		ah := p.Reg8(x86.ESP) // reg8 #4 is AH
		keep := p.Flags &^ (x86.FlagSF | x86.FlagZF | x86.FlagAF | x86.FlagPF | x86.FlagCF)
		p.Flags = keep | ah&(x86.FlagSF|x86.FlagZF|x86.FlagAF|x86.FlagPF|x86.FlagCF)
	case x86.LAHF:
		lo := p.Flags&(x86.FlagSF|x86.FlagZF|x86.FlagAF|x86.FlagPF|x86.FlagCF) | 0x02
		p.SetReg8(x86.ESP, lo) // AH

	case x86.INT:
		if in.Dst.Imm != 0x80 {
			return it.fault(fmt.Sprintf("int %#x not supported", in.Dst.Imm))
		}
		p.Kern.Syscall(p.Mem, &p.R)

	case x86.NOPOP:
		// nothing

	case x86.HLT:
		return it.fault("hlt in userland")

	default:
		return it.fault(fmt.Sprintf("unimplemented op %v", in.Op))
	}

	p.PC = next
	it.Steps++
	return nil
}

// shift implements SHL/SHR/SAR/ROL/ROR.
func (it *Interp) shift(in *x86.Inst, size uint8, mask uint32) error {
	p := it.P
	a := it.read(in.Dst)
	count := it.read(in.Src) & 31
	if count == 0 {
		return nil
	}
	bits := uint32(size) * 8
	var r uint32
	switch in.Op {
	case x86.SHL:
		if count < 32 {
			r = a << count & mask
		}
		p.Flags = x86.ShlFlags(p.Flags, a, count, size)
	case x86.SHR:
		if count < 32 {
			r = (a & mask) >> count
		}
		p.Flags = x86.ShrFlags(p.Flags, a, count, size)
	case x86.SAR:
		sv := int32(a << (32 - bits))
		if count >= bits {
			r = uint32(sv>>31) & mask
		} else {
			r = uint32(sv>>(32-bits)>>count) & mask
		}
		p.Flags = x86.SarFlags(p.Flags, a, count, size)
	case x86.ROL:
		c := count % bits
		r = (a<<c | (a&mask)>>(bits-c)) & mask
		if c == 0 {
			r = a & mask
		}
		p.Flags = x86.RolFlags(p.Flags, r, size)
	case x86.ROR:
		c := count % bits
		r = ((a&mask)>>c | a<<(bits-c)) & mask
		if c == 0 {
			r = a & mask
		}
		p.Flags = x86.RorFlags(p.Flags, r, size)
	}
	it.write(in.Dst, r)
	return nil
}

// mul1 implements the one-operand widening multiplies.
func (it *Interp) mul1(in *x86.Inst, signed bool) {
	p := it.P
	size := in.OpSize
	src := it.read(in.Src)
	switch size {
	case 1:
		al := p.Reg8(x86.EAX)
		var wide uint32
		if signed {
			wide = uint32(int32(int8(al)) * int32(int8(src)))
		} else {
			wide = al * src
		}
		p.SetReg16(x86.EAX, wide&0xffff)
		hiSig := wide>>8 != 0
		if signed {
			hiSig = int16(wide) != int16(int8(wide))
		}
		p.Flags = x86.MulFlags(p.Flags, wide&0xff, hiSig, 1)
	default: // 4 (16-bit form unused by our workloads but handled as 32)
		a := p.Reg(x86.EAX)
		var lo, hi uint32
		if signed {
			wide := int64(int32(a)) * int64(int32(src))
			lo, hi = uint32(wide), uint32(wide>>32)
		} else {
			wide := uint64(a) * uint64(src)
			lo, hi = uint32(wide), uint32(wide>>32)
		}
		p.SetReg(x86.EAX, lo)
		p.SetReg(x86.EDX, hi)
		hiSig := hi != 0
		if signed {
			hiSig = int32(hi) != int32(lo)>>31
		}
		p.Flags = x86.MulFlags(p.Flags, lo, hiSig, 4)
	}
}

// div implements DIV/IDIV (32-bit form).
func (it *Interp) div(in *x86.Inst) error {
	p := it.P
	if in.OpSize != 4 {
		return it.fault("8/16-bit divide not supported")
	}
	divisor := it.read(in.Src)
	if divisor == 0 {
		return it.fault("divide by zero")
	}
	num := uint64(p.Reg(x86.EDX))<<32 | uint64(p.Reg(x86.EAX))
	if in.Op == x86.IDIV {
		n := int64(num)
		d := int64(int32(divisor))
		q := n / d
		if q != int64(int32(q)) {
			return it.fault("idiv overflow")
		}
		p.SetReg(x86.EAX, uint32(q))
		p.SetReg(x86.EDX, uint32(n%d))
	} else {
		q := num / uint64(divisor)
		if q>>32 != 0 {
			return it.fault("div overflow")
		}
		p.SetReg(x86.EAX, uint32(q))
		p.SetReg(x86.EDX, uint32(num%uint64(divisor)))
	}
	return nil
}

// rotateCarry implements RCL/RCR: a rotate through CF over size*8+1 bits.
func (it *Interp) rotateCarry(in *x86.Inst, size uint8, mask uint32) {
	p := it.P
	a := it.read(in.Dst)
	count := it.read(in.Src) & 31
	bits := uint32(size) * 8
	count %= bits + 1
	if count == 0 {
		return
	}
	cf := p.Flags & x86.FlagCF
	wide := uint64(a&mask) | uint64(cf)<<bits // size*8+1 bit value
	if in.Op == x86.RCL {
		wide = (wide<<count | wide>>(bits+1-count)) & (1<<(bits+1) - 1)
	} else {
		wide = (wide>>count | wide<<(bits+1-count)) & (1<<(bits+1) - 1)
	}
	r := uint32(wide) & mask
	newCF := uint32(wide>>bits) & 1
	f := p.Flags &^ (x86.FlagCF | x86.FlagOF)
	if newCF != 0 {
		f |= x86.FlagCF
	}
	// OF (canonical, the count==1 rule applied always): msb(result) XOR CF.
	if (r&x86.SignBit(size) != 0) != (newCF != 0) {
		f |= x86.FlagOF
	}
	p.Flags = f
	it.write(in.Dst, r)
}

// shiftDouble implements SHLD/SHRD.
func (it *Interp) shiftDouble(in *x86.Inst, size uint8, mask uint32) {
	p := it.P
	dst := it.read(in.Dst)
	src := it.read(in.Src)
	count := it.read(in.Src2) & 31
	if count == 0 {
		return
	}
	bits := uint32(size) * 8
	if count >= bits {
		// Architecturally undefined for 16-bit; for 32-bit can't
		// happen (count&31 < 32). Canonical: operate modulo bits.
		count %= bits
		if count == 0 {
			return
		}
	}
	var r uint32
	if in.Op == x86.SHLD {
		r = (dst<<count | (src&mask)>>(bits-count)) & mask
		p.Flags = x86.ShlFlags(p.Flags, dst, count, size)
	} else {
		r = ((dst&mask)>>count | src<<(bits-count)) & mask
		p.Flags = x86.ShrFlags(p.Flags, dst, count, size)
	}
	// SZP reflect the double-shift result, not the single-shift one.
	p.Flags = x86.LogicFlags(p.Flags&^(x86.FlagCF|x86.FlagOF), r, size) |
		p.Flags&(x86.FlagCF|x86.FlagOF)
	it.write(in.Dst, r)
}

// bitTest implements BT/BTS/BTR/BTC, including the bit-string
// addressing form where a register bit offset indexes beyond the
// addressed word.
func (it *Interp) bitTest(in *x86.Inst, size uint8) {
	p := it.P
	bits := uint32(size) * 8
	off := it.read(in.Src)
	var val uint32
	var addr uint32
	mem := in.Dst.Kind == x86.KMem
	if mem {
		addr = it.ea(in.Dst)
		if in.Src.Kind == x86.KReg {
			// Bit-string addressing: signed word displacement.
			addr += uint32(int32(off)>>5) * 4
			if size == 2 {
				addr = it.ea(in.Dst) + uint32(int32(off)>>4)*2
			}
		}
		if it.OnMem != nil {
			it.OnMem(addr, size, in.Op != x86.BT)
		}
		val = p.Mem.ReadN(addr, size)
	} else {
		val = p.RegSized(in.Dst.Reg, size)
	}
	bit := off % bits
	if mem && in.Src.Kind == x86.KReg {
		bit = off & (bits - 1)
	}
	m := uint32(1) << bit
	f := p.Flags &^ x86.FlagCF
	if val&m != 0 {
		f |= x86.FlagCF
	}
	p.Flags = f
	switch in.Op {
	case x86.BT:
		return
	case x86.BTS:
		val |= m
	case x86.BTR:
		val &^= m
	case x86.BTC:
		val ^= m
	}
	if mem {
		p.Mem.WriteN(addr, val, size)
		it.noteStore(addr, size)
	} else {
		p.SetRegSized(in.Dst.Reg, val, size)
	}
}

// bitScan implements BSF/BSR. A zero source sets ZF and leaves the
// destination unchanged (our canonical choice for the architecturally
// undefined case); otherwise ZF clears and the index is written. The
// other arithmetic flags are canonically cleared.
func (it *Interp) bitScan(in *x86.Inst, size uint8) {
	p := it.P
	src := it.read(in.Src)
	f := p.Flags &^ x86.FlagsArith
	if src == 0 {
		p.Flags = f | x86.FlagZF
		return
	}
	p.Flags = f
	var idx uint32
	if in.Op == x86.BSF {
		for idx = 0; src&(1<<idx) == 0; idx++ {
		}
	} else {
		bits := uint32(size) * 8
		for idx = bits - 1; src&(1<<idx) == 0; idx-- {
		}
	}
	it.write(in.Dst, idx)
}

// stringOp implements MOVS/STOS/LODS/SCAS/CMPS with optional REP/REPNE.
func (it *Interp) stringOp(in *x86.Inst) error {
	p := it.P
	w := in.OpSize
	var step uint32 = uint32(w)
	if p.Flags&x86.FlagDF != 0 {
		step = -step
	}
	one := func() {
		si, di := p.Reg(x86.ESI), p.Reg(x86.EDI)
		switch in.Op {
		case x86.MOVS:
			if it.OnMem != nil {
				it.OnMem(si, w, false)
				it.OnMem(di, w, true)
			}
			p.Mem.WriteN(di, p.Mem.ReadN(si, w), w)
			it.noteStore(di, w)
			p.SetReg(x86.ESI, si+step)
			p.SetReg(x86.EDI, di+step)
		case x86.STOS:
			if it.OnMem != nil {
				it.OnMem(di, w, true)
			}
			p.Mem.WriteN(di, p.RegSized(x86.EAX, w), w)
			it.noteStore(di, w)
			p.SetReg(x86.EDI, di+step)
		case x86.LODS:
			if it.OnMem != nil {
				it.OnMem(si, w, false)
			}
			p.SetRegSized(x86.EAX, p.Mem.ReadN(si, w), w)
			p.SetReg(x86.ESI, si+step)
		case x86.SCAS:
			if it.OnMem != nil {
				it.OnMem(di, w, false)
			}
			a := p.RegSized(x86.EAX, w)
			b := p.Mem.ReadN(di, w)
			p.Flags = x86.SubFlags(p.Flags, a, b, 0, w)
			p.SetReg(x86.EDI, di+step)
		case x86.CMPS:
			if it.OnMem != nil {
				it.OnMem(si, w, false)
				it.OnMem(di, w, false)
			}
			a := p.Mem.ReadN(si, w)
			b := p.Mem.ReadN(di, w)
			p.Flags = x86.SubFlags(p.Flags, a, b, 0, w)
			p.SetReg(x86.ESI, si+step)
			p.SetReg(x86.EDI, di+step)
		}
	}
	if !in.Rep {
		one()
		return nil
	}
	if in.Op == x86.LODS {
		return it.fault("REP LODS not supported")
	}
	conditional := in.Op == x86.SCAS || in.Op == x86.CMPS
	for p.Reg(x86.ECX) != 0 {
		one()
		p.SetReg(x86.ECX, p.Reg(x86.ECX)-1)
		if conditional {
			zf := p.Flags&x86.FlagZF != 0
			if in.RepNE && zf { // REPNE: stop when equal
				break
			}
			if !in.RepNE && !zf { // REPE: stop when unequal
				break
			}
		}
	}
	return nil
}

// Run executes until the process exits, a fault occurs, or maxSteps
// instructions retire (0 means no limit). It reports whether the
// process exited.
func (it *Interp) Run(maxSteps uint64) (bool, error) {
	for !it.P.Exited() {
		if maxSteps != 0 && it.Steps >= maxSteps {
			return false, nil
		}
		if err := it.Step(); err != nil {
			return false, err
		}
	}
	return true, nil
}
