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

	// The page table has two levels: the top dirBits of an address pick
	// a directory entry, the next leafBits a page within that entry's
	// leaf. A leaf covers leafPages pages, 16 MB of the address space.
	leafBits  = 8
	leafPages = 1 << leafBits
	dirBits   = 32 - pageShift - leafBits
	dirShift  = pageShift + leafBits

	// PageBytes is the page size: the length of each page of a
	// Capture/Restore snapshot (MemImage), and the unit a loaded
	// image's footprint is counted in (TestLoadFootprint).
	PageBytes = pageSize
)

// Memory is a sparse little-endian 32-bit address space. Pages are
// allocated on first write; reads of unmapped memory return zero, which
// models fresh anonymous pages (the emulated process has no memory
// protection, matching the paper's userland-only environment).
//
// The pages hang off a two-level radix table. The directory is a fixed
// array of 256 leaf pointers, one per 16 MB region; a leaf is allocated
// on the first write into its region and holds that region's 256 page
// pointers and their write generations (3 KB). An address space thus
// costs its 2 KB directory, a leaf per 16 MB region it has written,
// and its 64 KB pages: a loaded image, with code, data and stack in
// three regions, about 11 KB of table instead of the 768 KB a flat
// table of all 65,536 pages would take. Reads go through lookup, which
// never allocates; writes through writePage, which does.
//
// Each page carries a write generation so Capture can snapshot the
// address space incrementally: only pages written since the previous
// capture are copied; clean pages share the prior snapshot's immutable
// backing. Capture and Seal each start a new generation, and each keeps
// its own mark of where it did so (capGen, sealGen): a page written
// since the last capture is one stamped at or after capGen, whatever
// seals came in between.
//
// The same generations answer a second question, for the translation
// memo (translate.Memo): does a range still hold exactly what the
// loader mapped there? Load seals the fresh address space — sealGen is
// the generation the image was written in, and the current generation
// moves past it — so a page is pristine while its write generation has
// not passed the seal. A page with no leaf has generation zero. The
// granularity is the 64 KB page: one store anywhere in a page makes all
// of it not pristine for the rest of the run.
//
// Every walk over the table (Capture, Hash) visits the allocated leaves
// in directory order and their pages in index order, so it meets the
// mapped pages in ascending page index, the order a flat table gave:
// hashes and snapshots do not depend on the table's shape.
type Memory struct {
	dir     [1 << dirBits]*leaf
	gen     uint32 // current write generation; bumped by Capture and by Seal
	capGen  uint32 // first generation after the last Capture; 0 = none yet
	sealGen uint32 // generation of the loaded image; 0 = nothing is pristine
	win     []byte // the last window CodeWindow had to copy
}

// leaf is the table for one 16 MB region: its pages (nil = unmapped)
// and the generation each was last written in.
type leaf struct {
	pages    [leafPages]*[pageSize]byte
	writeGen [leafPages]uint32
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{gen: 1} }

// lookup returns the page holding addr, or nil if it is unmapped. It
// is the read path and allocates nothing; it stays small enough for
// the compiler to inline it into Read8, Read16 and Read32.
func (m *Memory) lookup(addr uint32) *[pageSize]byte {
	l := m.dir[addr>>dirShift]
	if l == nil {
		return nil
	}
	return l.pages[addr>>pageShift&(leafPages-1)]
}

// writePage returns the page holding addr, mapping it (and its leaf)
// if need be, and stamps it with the current write generation.
func (m *Memory) writePage(addr uint32) *[pageSize]byte {
	l := m.dir[addr>>dirShift]
	if l == nil {
		l = new(leaf)
		m.dir[addr>>dirShift] = l
	}
	i := addr >> pageShift & (leafPages - 1)
	p := l.pages[i]
	if p == nil {
		p = new([pageSize]byte)
		l.pages[i] = p
	}
	l.writeGen[i] = m.gen
	return p
}

// pageGen returns the write generation of page idx: zero if it has
// never been written.
func (m *Memory) pageGen(idx uint32) uint32 {
	l := m.dir[idx>>leafBits&(1<<dirBits-1)]
	if l == nil {
		return 0
	}
	return l.writeGen[idx&(leafPages-1)]
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
		if m.pageGen(idx) > m.sealGen {
			return false
		}
		if idx == last {
			return true
		}
	}
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.writePage(addr)[addr&(pageSize-1)] = v
}

// Read16 reads a little-endian 16-bit value (unaligned allowed).
func (m *Memory) Read16(addr uint32) uint16 {
	off := addr & (pageSize - 1)
	if p := m.lookup(addr); p != nil && off+2 <= pageSize {
		return binary.LittleEndian.Uint16(p[off:])
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) {
	off := addr & (pageSize - 1)
	if off+2 <= pageSize {
		binary.LittleEndian.PutUint16(m.writePage(addr)[off:], v)
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 reads a little-endian 32-bit value (unaligned allowed).
func (m *Memory) Read32(addr uint32) uint32 {
	off := addr & (pageSize - 1)
	if p := m.lookup(addr); p != nil && off+4 <= pageSize {
		return binary.LittleEndian.Uint32(p[off:])
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off+4 <= pageSize {
		binary.LittleEndian.PutUint32(m.writePage(addr)[off:], v)
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
	return m.readInto(make([]byte, n), addr)
}

// readInto fills out with the bytes starting at addr.
func (m *Memory) readInto(out []byte, addr uint32) []byte {
	n := len(out)
	for done := 0; done < n; {
		off := addr & (pageSize - 1)
		chunk := min(n-done, int(pageSize-off))
		if p := m.lookup(addr); p != nil {
			copy(out[done:], p[off:int(off)+chunk])
		} else {
			clear(out[done : done+chunk])
		}
		done += chunk
		addr += uint32(chunk)
	}
	return out
}

// WriteBytes copies data into memory at addr, a page at a time.
// Addresses wrap at 4 GB.
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for len(data) > 0 {
		off := addr & (pageSize - 1)
		n := copy(m.writePage(addr)[off:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// CodeWindow returns n bytes of code starting at addr, for the
// instruction decoder. Reads never fault; unmapped bytes are zero.
//
// The window is read-only. When it lies within one mapped page it is a
// view of that page, not a copy — its capacity clipped to n so an
// append cannot reach guest memory — and a later write to the page
// shows through it; only a window that crosses a page boundary or
// covers unmapped memory is copied, into a buffer the Memory keeps and
// the next such window overwrites. Decode a window before the guest
// next runs and before the next CodeWindow call, and keep nothing that
// points into it.
func (m *Memory) CodeWindow(addr uint32, n int) []byte {
	off := int(addr & (pageSize - 1))
	if p := m.lookup(addr); p != nil && off+n <= pageSize {
		return p[off : off+n : off+n]
	}
	if cap(m.win) < n {
		m.win = make([]byte, n)
	}
	return m.readInto(m.win[:n:n], addr)
}
