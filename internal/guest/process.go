package guest

import (
	"bytes"
	"fmt"

	"tilevm/internal/x86"
)

// Standard layout constants for loaded images (the classic Linux/x86
// static-binary layout).
const (
	DefaultCodeBase = 0x08048000
	DefaultStackTop = 0xbf000000
	DefaultHeapBase = 0x0a000000
	MmapBase        = 0x40000000
)

// Image is a loadable guest program: code, initialized data segments,
// and an entry point. It is the workload generator's output format and
// the loader's input.
type Image struct {
	Entry    uint32
	CodeBase uint32
	Code     []byte
	Segments []Segment // initialized data
	HeapBase uint32    // initial program break; 0 means DefaultHeapBase
	Name     string
}

// Segment is one initialized data region.
type Segment struct {
	Addr uint32
	Data []byte
}

// CPU is the guest architectural register state.
type CPU struct {
	R     [8]uint32 // indexed by x86.Reg
	Flags uint32
	PC    uint32
}

// Reg returns a 32-bit register value.
func (c *CPU) Reg(r x86.Reg) uint32 { return c.R[r&7] }

// SetReg sets a 32-bit register.
func (c *CPU) SetReg(r x86.Reg, v uint32) { c.R[r&7] = v }

// Reg8 reads an 8-bit register (AL..BH numbering).
func (c *CPU) Reg8(r x86.Reg) uint32 {
	if r < 4 {
		return c.R[r] & 0xff
	}
	return c.R[r-4] >> 8 & 0xff
}

// SetReg8 writes an 8-bit register.
func (c *CPU) SetReg8(r x86.Reg, v uint32) {
	if r < 4 {
		c.R[r] = c.R[r]&^uint32(0xff) | v&0xff
	} else {
		c.R[r-4] = c.R[r-4]&^uint32(0xff00) | v&0xff<<8
	}
}

// Reg16 reads a 16-bit register.
func (c *CPU) Reg16(r x86.Reg) uint32 { return c.R[r&7] & 0xffff }

// SetReg16 writes a 16-bit register.
func (c *CPU) SetReg16(r x86.Reg, v uint32) {
	c.R[r&7] = c.R[r&7]&^uint32(0xffff) | v&0xffff
}

// RegSized reads a register at the given operand size.
func (c *CPU) RegSized(r x86.Reg, size uint8) uint32 {
	switch size {
	case 1:
		return c.Reg8(r)
	case 2:
		return c.Reg16(r)
	default:
		return c.Reg(r)
	}
}

// SetRegSized writes a register at the given operand size (32-bit
// writes replace; 8/16-bit writes merge, as on x86).
func (c *CPU) SetRegSized(r x86.Reg, v uint32, size uint8) {
	switch size {
	case 1:
		c.SetReg8(r, v)
	case 2:
		c.SetReg16(r, v)
	default:
		c.SetReg(r, v)
	}
}

// Process is one guest process: its memory, registers, and kernel
// state. Load builds it from an Image.
type Process struct {
	CPU
	Mem  *Memory
	Kern *Kernel
	Name string
}

// Load maps an image and prepares the initial register state: ESP at
// the stack top with a minimal (argc=0, argv=NULL, envp=NULL) frame.
// The address space is sealed on return: what Load wrote is a function
// of the image alone, so it is the same in every process loaded from it.
func Load(img *Image) *Process {
	mem := NewMemory()
	mem.WriteBytes(img.CodeBase, img.Code)
	for _, seg := range img.Segments {
		mem.WriteBytes(seg.Addr, seg.Data)
	}
	heap := img.HeapBase
	if heap == 0 {
		heap = DefaultHeapBase
	}
	p := &Process{
		Mem:  mem,
		Kern: NewKernel(heap),
		Name: img.Name,
	}
	p.PC = img.Entry
	sp := uint32(DefaultStackTop)
	// argc / argv NULL / envp NULL.
	sp -= 4
	mem.Write32(sp, 0)
	sp -= 4
	mem.Write32(sp, 0)
	sp -= 4
	mem.Write32(sp, 0)
	p.SetReg(x86.ESP, sp)
	mem.Seal()
	return p
}

// Exited reports whether the process has called exit.
func (p *Process) Exited() bool { return p.Kern.Exited }

// Kernel implements the proxied syscall surface. It is deterministic:
// "time" is a counter, stdin is a fixed buffer.
type Kernel struct {
	Exited   bool
	ExitCode int32
	Stdout   bytes.Buffer
	Stdin    bytes.Reader
	brk      uint32
	mmapTop  uint32
	clock    uint32
	Calls    uint64 // number of syscalls serviced
}

// NewKernel returns a kernel with the program break at heapBase.
func NewKernel(heapBase uint32) *Kernel {
	return &Kernel{brk: heapBase, mmapTop: MmapBase}
}

// SetStdin provides the bytes read(2) will return.
func (k *Kernel) SetStdin(data []byte) { k.Stdin.Reset(data) }

// Linux i386 syscall numbers (the subset we proxy).
const (
	sysExit      = 1
	sysRead      = 3
	sysWrite     = 4
	sysGetpid    = 20
	sysBrk       = 45
	sysIoctl     = 54
	sysMmap      = 90
	sysMunmap    = 91
	sysUname     = 122
	sysMmap2     = 192
	sysExitGroup = 252
	sysTime      = 13
)

const enosys = ^uint32(0) - 37 // -38 (ENOSYS)

// Syscall services an int 0x80 with the given register file, mutating
// memory and registers per the Linux i386 ABI (EAX = number and return
// value; EBX, ECX, EDX = arguments).
func (k *Kernel) Syscall(mem *Memory, r *[8]uint32) {
	k.Calls++
	num := r[x86.EAX]
	a1, a2, a3 := r[x86.EBX], r[x86.ECX], r[x86.EDX]
	switch num {
	case sysExit, sysExitGroup:
		k.Exited = true
		k.ExitCode = int32(a1)
		r[x86.EAX] = 0
	case sysRead:
		if a1 != 0 { // only stdin
			r[x86.EAX] = ^uint32(8) // -EBADF
			return
		}
		buf := make([]byte, a3)
		n, _ := k.Stdin.Read(buf)
		mem.WriteBytes(a2, buf[:n])
		r[x86.EAX] = uint32(n)
	case sysWrite:
		if a1 != 1 && a1 != 2 {
			r[x86.EAX] = ^uint32(8)
			return
		}
		k.Stdout.Write(mem.ReadBytes(a2, int(a3)))
		r[x86.EAX] = a3
	case sysGetpid:
		r[x86.EAX] = 1000
	case sysBrk:
		if a1 != 0 && a1 >= k.brk {
			k.brk = a1
		}
		r[x86.EAX] = k.brk
	case sysIoctl:
		r[x86.EAX] = 0
	case sysMmap, sysMmap2:
		// Anonymous mapping only; length is argument 2.
		length := (a2 + 0xfff) &^ uint32(0xfff)
		addr := k.mmapTop
		k.mmapTop += length
		r[x86.EAX] = addr
	case sysMunmap:
		r[x86.EAX] = 0
	case sysUname:
		mem.WriteBytes(a1, []byte("tilevm\x00"))
		r[x86.EAX] = 0
	case sysTime:
		k.clock++
		if a1 != 0 {
			mem.Write32(a1, k.clock)
		}
		r[x86.EAX] = k.clock
	default:
		r[x86.EAX] = enosys
	}
}

// String summarizes the CPU state, for test failure messages.
func (c *CPU) String() string {
	return fmt.Sprintf(
		"eax=%08x ecx=%08x edx=%08x ebx=%08x esp=%08x ebp=%08x esi=%08x edi=%08x fl=%04x pc=%08x",
		c.R[0], c.R[1], c.R[2], c.R[3], c.R[4], c.R[5], c.R[6], c.R[7], c.Flags, c.PC)
}
