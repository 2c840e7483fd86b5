// Package guest holds the guest process environment: a sparse 32-bit
// flat memory, the architectural register file, the program image
// loader, and a small Linux int-0x80 syscall surface. Both execution
// paths — the reference x86 interpreter and the parallel translator
// running on the simulated Raw machine — operate on these types, which
// is what makes differential testing possible.
package guest

import "encoding/binary"

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	numPages  = 1 << (32 - pageShift)

	// PageBytes is the page granularity of Capture/Restore snapshots,
	// exported for the checkpoint codec's length validation.
	PageBytes = pageSize
)

// Memory is a sparse little-endian 32-bit address space. Pages are
// allocated on first write; reads of unmapped memory return zero, which
// models fresh anonymous pages (the emulated process has no memory
// protection, matching the paper's userland-only environment).
//
// Each page carries a write generation so Capture can snapshot the
// address space incrementally: only pages written since the previous
// capture are copied; clean pages share the prior snapshot's immutable
// backing.
//
// The same generations answer a second question, for the translation
// memo (translate.Memo): does a range still hold exactly what the
// loader mapped there? Load seals the fresh address space — sealGen is
// the generation the image was written in, and the current generation
// moves past it — so a page is pristine while its write generation has
// not passed the seal. The granularity is the 64 KB page: one store
// anywhere in a page makes all of it not pristine for the rest of the
// run.
type Memory struct {
	pages    [numPages]*[pageSize]byte
	writeGen [numPages]uint32
	gen      uint32 // current capture generation; bumped by Capture
	sealGen  uint32 // generation of the loaded image; 0 = nothing is pristine
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{gen: 1} }

func (m *Memory) page(addr uint32, alloc bool) *[pageSize]byte {
	idx := addr >> pageShift
	p := m.pages[idx]
	if alloc {
		if p == nil {
			p = new([pageSize]byte)
			m.pages[idx] = p
		}
		m.writeGen[idx] = m.gen
	}
	return p
}

// Seal marks everything written so far as the loaded image: until a
// page is next written, Pristine reports it unchanged. Restore unseals.
func (m *Memory) Seal() {
	m.sealGen = m.gen
	m.gen++
}

// Pristine reports whether the n bytes at addr are untouched since
// Seal: no page they lie in has been written (or restored) after it.
// Unmapped pages count — they read as zero in every run of the image.
// The range wraps at 4 GB like every other access.
func (m *Memory) Pristine(addr uint32, n int) bool {
	if m.sealGen == 0 {
		return false
	}
	if n <= 0 {
		return true
	}
	last := (addr + uint32(n) - 1) >> pageShift
	for idx := addr >> pageShift; ; idx = (idx + 1) & (numPages - 1) {
		if m.writeGen[idx] > m.sealGen {
			return false
		}
		if idx == last {
			return true
		}
	}
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read16 reads a little-endian 16-bit value (unaligned allowed).
func (m *Memory) Read16(addr uint32) uint16 {
	off := addr & (pageSize - 1)
	if p := m.page(addr, false); p != nil && off+2 <= pageSize {
		return binary.LittleEndian.Uint16(p[off:])
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) {
	off := addr & (pageSize - 1)
	if off+2 <= pageSize {
		binary.LittleEndian.PutUint16(m.page(addr, true)[off:], v)
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 reads a little-endian 32-bit value (unaligned allowed).
func (m *Memory) Read32(addr uint32) uint32 {
	off := addr & (pageSize - 1)
	if p := m.page(addr, false); p != nil && off+4 <= pageSize {
		return binary.LittleEndian.Uint32(p[off:])
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(m.page(addr, true)[off:], v)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// ReadN reads an n-byte value (n ∈ {1,2,4}) zero-extended to 32 bits.
func (m *Memory) ReadN(addr uint32, n uint8) uint32 {
	switch n {
	case 1:
		return uint32(m.Read8(addr))
	case 2:
		return uint32(m.Read16(addr))
	default:
		return m.Read32(addr)
	}
}

// WriteN writes the low n bytes (n ∈ {1,2,4}) of v.
func (m *Memory) WriteN(addr uint32, v uint32, n uint8) {
	switch n {
	case 1:
		m.Write8(addr, uint8(v))
	case 2:
		m.Write16(addr, uint16(v))
	default:
		m.Write32(addr, v)
	}
}

// ReadBytes copies n bytes starting at addr into a new slice, a page
// at a time. Unmapped bytes read as zero and addresses wrap at 4 GB.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for done := 0; done < n; {
		off := addr & (pageSize - 1)
		chunk := min(n-done, int(pageSize-off))
		if p := m.page(addr, false); p != nil {
			copy(out[done:], p[off:int(off)+chunk])
		}
		done += chunk
		addr += uint32(chunk)
	}
	return out
}

// WriteBytes copies data into memory at addr.
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.Write8(addr+uint32(i), b)
	}
}

// CodeWindow returns n bytes of code starting at addr, for the
// instruction decoder. Reads never fault; unmapped bytes are zero.
//
// The window is read-only. When it lies within one mapped page it is a
// view of that page, not a copy — its capacity clipped to n so an
// append cannot reach guest memory — and a later write to the page
// shows through it; only a window that crosses a page boundary or
// covers unmapped memory is copied. Decode a window before the guest
// next runs and keep nothing that points into it.
func (m *Memory) CodeWindow(addr uint32, n int) []byte {
	off := int(addr & (pageSize - 1))
	if p := m.page(addr, false); p != nil && off+n <= pageSize {
		return p[off : off+n : off+n]
	}
	return m.ReadBytes(addr, n)
}
