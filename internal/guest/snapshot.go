package guest

import (
	"encoding/binary"
	"io"
)

// MemImage is an immutable point-in-time snapshot of a Memory. Pages
// are keyed by page index; each value is a PageBytes-long copy (or a
// slice shared with the previous snapshot when the page was not written
// in between — the copy-on-write side of incremental capture). Callers
// must never mutate the page slices.
type MemImage struct {
	Pages map[uint32][]byte
}

// Capture snapshots the address space. prev is the immediately
// preceding snapshot of the same Memory (nil for a full capture): pages
// not written since prev was taken share its backing instead of being
// copied, so steady-state capture cost is proportional to the write
// working set, not the footprint.
func (m *Memory) Capture(prev *MemImage) *MemImage {
	if m.gen == 0 {
		m.gen = 1
	}
	img := &MemImage{Pages: make(map[uint32][]byte)}
	m.eachPage(func(idx uint32, l *leaf, i int) {
		if prev != nil && l.writeGen[i] < m.capGen {
			if old, ok := prev.Pages[idx]; ok {
				img.Pages[idx] = old
				return
			}
		}
		cp := make([]byte, pageSize)
		copy(cp, l.pages[i][:])
		img.Pages[idx] = cp
	})
	m.gen++
	m.capGen = m.gen
	return img
}

// Restore replaces the address space contents with the snapshot. Pages
// are installed as fresh copies so future writes cannot corrupt the
// (shared, immutable) snapshot backing. Nothing is pristine afterwards:
// the contents are the snapshot's, not the loaded image's.
func (m *Memory) Restore(img *MemImage) {
	m.sealGen = 0
	clear(m.dir[:])
	if m.gen == 0 {
		m.gen = 1
	}
	for idx, data := range img.Pages {
		copy(m.writePage(idx << pageShift)[:], data)
	}
}

// Hash returns a content hash of the address space: FNV-1a over
// (page index, page bytes) in index order, skipping all-zero pages so
// an allocated-but-zero page hashes identically to an unmapped one
// (both read as zero).
func (m *Memory) Hash() uint64 {
	h := fnvOffset
	m.eachPage(func(idx uint32, l *leaf, i int) {
		h = hashPage(h, idx, l.pages[i][:])
	})
	return h
}

// eachPage calls f for every mapped page in ascending page index: idx
// is the page's index in the address space, i its slot in leaf l.
func (m *Memory) eachPage(f func(idx uint32, l *leaf, i int)) {
	for d := range m.dir {
		l := m.dir[d]
		if l == nil {
			continue
		}
		for i := range l.pages {
			if l.pages[i] != nil {
				f(uint32(d)<<leafBits|uint32(i), l, i)
			}
		}
	}
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashPage(h uint64, idx uint32, data []byte) uint64 {
	if allZero(data) {
		return h
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], idx)
	h = fnvBytes(h, hdr[:])
	return fnvBytes(h, data)
}

func fnvBytes(h uint64, data []byte) uint64 {
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

func allZero(data []byte) bool {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != 0 {
			return false
		}
	}
	for ; i < len(data); i++ {
		if data[i] != 0 {
			return false
		}
	}
	return true
}

// KernelState is a restorable snapshot of the deterministic kernel
// model: syscall-visible state only (the Kernel has no asynchronous
// behavior, so this plus Memory and CPU is the whole guest-visible
// machine state).
type KernelState struct {
	Exited   bool
	ExitCode int32
	Stdout   []byte
	Stdin    []byte // full stdin buffer
	StdinOff int64  // read cursor into Stdin
	Brk      uint32
	MmapTop  uint32
	Clock    uint32
	Calls    uint64
}

// Export snapshots the kernel. The stdin cursor is captured via ReadAt
// so exporting does not disturb the stream position.
func (k *Kernel) Export() KernelState {
	s := KernelState{
		Exited:   k.Exited,
		ExitCode: k.ExitCode,
		Stdout:   append([]byte(nil), k.Stdout.Bytes()...),
		Brk:      k.brk,
		MmapTop:  k.mmapTop,
		Clock:    k.clock,
		Calls:    k.Calls,
	}
	if n := k.Stdin.Size(); n > 0 {
		s.Stdin = make([]byte, n)
		if _, err := k.Stdin.ReadAt(s.Stdin, 0); err != nil && err != io.EOF {
			panic("guest: stdin snapshot: " + err.Error())
		}
		s.StdinOff = n - int64(k.Stdin.Len())
	}
	return s
}

// RestoreState rolls the kernel back to a previously exported snapshot.
func (k *Kernel) RestoreState(s KernelState) {
	k.Exited = s.Exited
	k.ExitCode = s.ExitCode
	k.Stdout.Reset()
	k.Stdout.Write(s.Stdout)
	k.Stdin.Reset(append([]byte(nil), s.Stdin...))
	if s.StdinOff > 0 {
		if _, err := k.Stdin.Seek(s.StdinOff, io.SeekStart); err != nil {
			panic("guest: stdin restore: " + err.Error())
		}
	}
	k.brk = s.Brk
	k.mmapTop = s.MmapTop
	k.clock = s.Clock
	k.Calls = s.Calls
}
