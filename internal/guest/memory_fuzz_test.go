package guest

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"
)

// refMemory is FuzzMemoryModel's reference: the address space as a
// plain byte map, with the pristine and incremental-capture state
// tracked per page by hand.
type refMemory struct {
	bytes   map[uint32]byte
	sealed  bool
	dirty   map[uint32]bool // pages written since the last Seal
	touched map[uint32]bool // pages written since the last Capture
}

func newRefMemory() *refMemory {
	return &refMemory{bytes: map[uint32]byte{}, dirty: map[uint32]bool{}, touched: map[uint32]bool{}}
}

func (r *refMemory) write(addr uint32, data []byte) {
	for i, b := range data {
		a := addr + uint32(i)
		r.bytes[a] = b
		r.dirty[a>>pageShift] = true
		r.touched[a>>pageShift] = true
	}
}

func (r *refMemory) read(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.bytes[addr+uint32(i)]
	}
	return out
}

func (r *refMemory) pristine(addr uint32, n int) bool {
	if !r.sealed {
		return false
	}
	if n <= 0 {
		return true
	}
	last := (addr + uint32(n) - 1) >> pageShift
	for idx := addr >> pageShift; ; idx = (idx + 1) & (numPages - 1) {
		if r.dirty[idx] {
			return false
		}
		if idx == last {
			return true
		}
	}
}

// pages returns the reference's contents as whole pages, keyed by page
// index, leaving out the all-zero ones.
func (r *refMemory) pages() map[uint32][]byte {
	pages := map[uint32][]byte{}
	for a, b := range r.bytes {
		if b == 0 {
			continue
		}
		p := pages[a>>pageShift]
		if p == nil {
			p = make([]byte, pageSize)
			pages[a>>pageShift] = p
		}
		p[a&(pageSize-1)] = b
	}
	return pages
}

// hash is Memory.Hash's definition computed with the standard
// library's FNV-1a: (page index, page bytes) of every page that is not
// all zero, in ascending page index.
func (r *refMemory) hash() uint64 {
	pages := r.pages()
	idxs := make([]uint32, 0, len(pages))
	for idx := range pages {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	h := fnv.New64a()
	for _, idx := range idxs {
		h.Write(binary.LittleEndian.AppendUint32(nil, idx))
		h.Write(pages[idx])
	}
	return h.Sum64()
}

// fuzzAddr draws an address next to one of the places where the page
// table changes course: a 64 KB page boundary, a 16 MB leaf boundary,
// or the wrap at 4 GB. sel picks the kind of boundary and which one;
// delta (a signed byte) is the distance from it.
func fuzzAddr(sel, delta byte) uint32 {
	d := uint32(int32(int8(delta)))
	switch sel % 4 {
	case 0: // one of eight 64 KB page boundaries in the code region
		return DefaultCodeBase&^(pageSize-1) + uint32(sel>>2%8)<<pageShift + d
	case 1: // one of four 16 MB leaf boundaries
		return uint32(sel>>2%4+1)<<dirShift + d
	case 2: // the wrap at 4 GB
		return d
	default: // the stack's 16 MB region, below its top
		return DefaultStackTop - uint32(sel>>2%4)<<pageShift + d
	}
}

// FuzzMemoryModel runs a Memory and a byte-map reference through the
// same random sequence of writes, reads, seals, captures and restores,
// at addresses next to page, leaf and 4 GB boundaries, and checks that
// every read, Pristine answer, snapshot and Hash agrees with the
// reference.
func FuzzMemoryModel(f *testing.F) {
	f.Add([]byte{0, 0, 0xfe, 1, 2, 3, 4, 12, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 0xf0, 90, 8, 0, 0, 0, 4, 2, 0xf8, 5, 9, 2, 0xf8, 40, 12, 0, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 2, 3, 0xfe, 0xaa, 0xbb, 0xcc, 0xdd, 9, 3, 0xfe, 2, 10, 0, 0, 0,
		1, 5, 0x10, 7, 7, 10, 1, 0, 0, 11, 0, 0, 0, 12, 0, 0, 0, 9, 3, 0, 1})
	f.Add([]byte{13, 7, 0xc0, 3, 10, 0, 0, 0, 0, 6, 0xff, 0x20, 8, 0, 0, 0, 7, 6, 0xfc, 30, 11, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 10, 0, 0, 1, 0, 0, 0, 2, 10, 0, 0, 1, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, ref := NewMemory(), newRefMemory()
		type snapshot struct {
			img   *MemImage
			pages map[uint32][]byte
		}
		var snaps []snapshot
		var last *MemImage
		for len(ops) >= 4 {
			op, sel, delta, arg := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			addr := fuzzAddr(sel, delta)
			switch op % 14 {
			case 0:
				m.Write8(addr, arg)
				ref.write(addr, []byte{arg})
			case 1:
				v := uint16(arg)*0x0101 + 1
				m.Write16(addr, v)
				ref.write(addr, binary.LittleEndian.AppendUint16(nil, v))
			case 2:
				v := uint32(arg)*0x01010101 ^ 0x80402010
				m.Write32(addr, v)
				ref.write(addr, binary.LittleEndian.AppendUint32(nil, v))
			case 3:
				n := []uint8{1, 2, 4}[arg%3]
				v := uint32(arg) * 0x9E3779B9
				m.WriteN(addr, v, n)
				ref.write(addr, binary.LittleEndian.AppendUint32(nil, v)[:n])
			case 4, 5:
				n := int(arg) * 3
				if op%14 == 5 {
					n += pageSize // a whole page and then some
				}
				data := make([]byte, n)
				for i := range data {
					data[i] = uint8(i*7) + arg
				}
				m.WriteBytes(addr, data)
				ref.write(addr, data)
			case 6:
				want := ref.read(addr, 4)
				if got := m.Read8(addr); got != want[0] {
					t.Fatalf("Read8(%#x) = %#x, want %#x", addr, got, want[0])
				}
				if got := m.Read16(addr); got != binary.LittleEndian.Uint16(want) {
					t.Fatalf("Read16(%#x) = %#x, want %x", addr, got, want[:2])
				}
				if got := m.Read32(addr); got != binary.LittleEndian.Uint32(want) {
					t.Fatalf("Read32(%#x) = %#x, want %x", addr, got, want)
				}
				n := []uint8{1, 2, 4}[arg%3]
				if got, w := m.ReadN(addr, n), binary.LittleEndian.Uint32(want)&(1<<(8*n)-1); got != w {
					t.Fatalf("ReadN(%#x, %d) = %#x, want %#x", addr, n, got, w)
				}
			case 7:
				n := int(arg)
				want := ref.read(addr, n)
				if got := m.ReadBytes(addr, n); !bytes.Equal(got, want) {
					t.Fatalf("ReadBytes(%#x, %d) = %x, want %x", addr, n, got, want)
				}
				got := m.CodeWindow(addr, n%64)
				if !bytes.Equal(got, want[:n%64]) || cap(got) != n%64 {
					t.Fatalf("CodeWindow(%#x, %d) = %x (cap %d), want %x", addr, n%64, got, cap(got), want[:n%64])
				}
			case 8:
				m.Seal()
				ref.sealed = true
				clear(ref.dirty)
			case 9:
				n := int(arg)<<9 - 100 // up to two pages, and a few non-positive lengths
				if got, want := m.Pristine(addr, n), ref.pristine(addr, n); got != want {
					t.Fatalf("Pristine(%#x, %d) = %v, want %v", addr, n, got, want)
				}
			case 10:
				prev := last
				if arg%4 == 0 {
					prev = nil // a full capture
				}
				img := m.Capture(prev)
				pages := ref.pages()
				for idx, data := range img.Pages {
					want := pages[idx]
					if want == nil {
						want = make([]byte, pageSize)
					}
					if !bytes.Equal(data, want) {
						t.Fatalf("Capture: page %#x differs from the reference", idx)
					}
					if old, ok := snapPage(prev, idx); ok && !ref.touched[idx] && &old[0] != &data[0] {
						t.Fatalf("Capture: page %#x, unwritten since the previous capture, was copied", idx)
					}
				}
				for idx := range pages {
					if img.Pages[idx] == nil {
						t.Fatalf("Capture: page %#x missing", idx)
					}
				}
				clear(ref.touched)
				last = img
				snaps = append(snaps, snapshot{img, pages})
				if len(snaps) > 4 {
					snaps = snaps[1:]
				}
			case 11:
				if len(snaps) == 0 {
					continue
				}
				s := snaps[int(arg)%len(snaps)]
				m.Restore(s.img)
				ref.bytes = map[uint32]byte{}
				for idx, data := range s.pages {
					for i, b := range data {
						if b != 0 {
							ref.bytes[idx<<pageShift+uint32(i)] = b
						}
					}
				}
				ref.sealed = false
				for idx := range s.img.Pages {
					ref.touched[idx] = true
				}
			case 12, 13:
				if got, want := m.Hash(), ref.hash(); got != want {
					t.Fatalf("Hash = %#x, reference %#x", got, want)
				}
			}
		}
		for a, b := range ref.bytes {
			if got := m.Read8(a); got != b {
				t.Fatalf("at the end: Read8(%#x) = %#x, want %#x", a, got, b)
			}
		}
		if got, want := m.Hash(), ref.hash(); got != want {
			t.Fatalf("at the end: Hash = %#x, reference %#x", got, want)
		}
	})
}

// snapPage returns the snapshot's copy of page idx; a nil snapshot has
// none.
func snapPage(img *MemImage, idx uint32) ([]byte, bool) {
	if img == nil {
		return nil, false
	}
	p, ok := img.Pages[idx]
	return p, ok
}
