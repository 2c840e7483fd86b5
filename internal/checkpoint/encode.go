package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"

	"tilevm/internal/cachesim"
	"tilevm/internal/guest"
	"tilevm/internal/mmu"
)

// Binary format: a 4-byte magic, a fixed-width little-endian version,
// a uvarint-encoded body, and a trailing CRC32 (IEEE) over everything
// before it. The encoding is canonical — maps are emitted in sorted key
// order — so encode(decode(encode(s))) == encode(s) byte for byte.
const (
	stateMagic  = "TVCK"
	recordMagic = "TVRC"
	// codecVer 3: version 2 frames carry a tiered-translation section
	// this decoder does not read, so checkFrame rejects them.
	codecVer = 3
)

type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) u32(v uint32)  { w.u64(uint64(v)) }
func (w *writer) i64(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) b(v bool)      { w.buf = append(w.buf, boolByte(v)) }
func (w *writer) raw(p []byte)  { w.buf = append(w.buf, p...) }
func (w *writer) blob(p []byte) { w.u64(uint64(len(p))); w.raw(p) }
func (w *writer) str(s string)  { w.blob([]byte(s)) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// reader is the bounds-checked decoder. Every length and count is
// validated against the remaining input before allocation, so a
// corrupt or adversarial (fuzzed) buffer cannot force huge
// allocations; the first malformed field latches err and subsequent
// reads return zero values.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("checkpoint: truncated uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) u32() uint32 {
	v := r.u64()
	if v > 0xffffffff {
		r.fail("checkpoint: uvarint %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("checkpoint: truncated varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) b() bool {
	if r.err != nil || r.remaining() < 1 {
		r.fail("checkpoint: truncated bool")
		return false
	}
	v := r.buf[r.off]
	r.off++
	if v > 1 {
		r.fail("checkpoint: bad bool byte %d", v)
		return false
	}
	return v == 1
}

// count reads an element count for a sequence whose elements occupy at
// least minElemBytes each, rejecting counts the remaining input cannot
// possibly hold.
func (r *reader) count(minElemBytes int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.remaining()/minElemBytes) {
		r.fail("checkpoint: count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

func (r *reader) blob() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

func (r *reader) str() string { return string(r.blob()) }

// putUints/getUints encode a struct of uint64 counter fields
// (metrics.Set, fault.Counts) by reflection, prefixed with the field
// count so older decoders reject newer layouts cleanly.
func putUints(w *writer, v any) {
	rv := reflect.ValueOf(v).Elem()
	w.u64(uint64(rv.NumField()))
	for i := 0; i < rv.NumField(); i++ {
		w.u64(rv.Field(i).Uint())
	}
}

func getUints(r *reader, v any) {
	rv := reflect.ValueOf(v).Elem()
	n := r.count(1)
	if r.err != nil {
		return
	}
	if n != rv.NumField() {
		r.fail("checkpoint: %s has %d fields, input has %d", rv.Type(), rv.NumField(), n)
		return
	}
	for i := 0; i < n; i++ {
		rv.Field(i).SetUint(r.u64())
	}
}

func putCache(w *writer, s *cachesim.State) {
	w.u64(uint64(len(s.Lines)))
	for _, l := range s.Lines {
		w.u32(l.Tag)
		w.b(l.Valid)
		w.b(l.Dirty)
		w.u64(l.Used)
	}
	w.u64(s.Stamp)
	w.u64(s.Accesses)
	w.u64(s.Misses)
	w.u64(s.Evictions)
}

func getCache(r *reader, s *cachesim.State) {
	n := r.count(4)
	if r.err != nil {
		return
	}
	s.Lines = make([]cachesim.LineState, n)
	for i := range s.Lines {
		s.Lines[i] = cachesim.LineState{Tag: r.u32(), Valid: r.b(), Dirty: r.b(), Used: r.u64()}
	}
	s.Stamp = r.u64()
	s.Accesses = r.u64()
	s.Misses = r.u64()
	s.Evictions = r.u64()
}

func putU32s(w *writer, vs []uint32) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.u32(v)
	}
}

func getU32s(r *reader) []uint32 {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

// EncodeState serializes a snapshot into the versioned, checksummed
// binary format.
func EncodeState(s *State) []byte {
	w := &writer{buf: make([]byte, 0, 1024)}
	w.raw([]byte(stateMagic))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, codecVer)

	w.u64(s.Seq)
	w.u64(s.Cycles)

	for _, reg := range s.CPU.R {
		w.u32(reg)
	}
	w.u32(s.CPU.Flags)
	w.u32(s.CPU.PC)

	w.b(s.Kern.Exited)
	w.i64(int64(s.Kern.ExitCode))
	w.blob(s.Kern.Stdout)
	w.blob(s.Kern.Stdin)
	w.i64(s.Kern.StdinOff)
	w.u32(s.Kern.Brk)
	w.u32(s.Kern.MmapTop)
	w.u32(s.Kern.Clock)
	w.u64(s.Kern.Calls)

	// Memory image, pages in index order. Shared (incremental) pages
	// are written in full: the encoded snapshot is self-contained.
	if s.Mem == nil {
		w.u64(0)
	} else {
		idxs := make([]uint32, 0, len(s.Mem.Pages))
		for idx := range s.Mem.Pages {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		w.u64(uint64(len(idxs)))
		for _, idx := range idxs {
			w.u32(idx)
			w.raw(s.Mem.Pages[idx])
		}
	}

	putU32s(w, s.MMU.Page)
	putU32s(w, s.MMU.Frame)
	w.u64(uint64(len(s.MMU.Used)))
	for _, v := range s.MMU.Used {
		w.u64(v)
	}
	w.u64(uint64(len(s.MMU.Valid)))
	for _, v := range s.MMU.Valid {
		w.b(v)
	}
	w.u64(s.MMU.Stamp)
	w.u64(s.MMU.Lookups)
	w.u64(s.MMU.Misses)
	w.u64(s.MMU.Flushes)
	w.u64(uint64(len(s.MMU.PT)))
	for _, e := range s.MMU.PT {
		w.u32(e.VPN)
		w.u32(e.Frame)
	}
	w.u32(s.MMU.NextFrame)
	w.u64(s.MMU.Walks)

	putCache(w, &s.DL1)

	putU32s(w, s.L1.PCs)
	w.u64(s.L1.Lookups)
	w.u64(s.L1.Hits)
	w.u64(s.L1.Flushes)
	w.u64(s.L1.Chains)

	putU32s(w, s.L2C.PCs)
	w.u64(s.L2C.Accesses)
	w.u64(s.L2C.Misses)
	w.u64(s.L2C.Stores)

	w.u64(uint64(len(s.Queues)))
	for _, q := range s.Queues {
		w.u32(q.PC)
		w.i64(int64(q.Depth))
	}
	putU32s(w, s.Spec)
	putU32s(w, s.Bad)

	w.u64(uint64(len(s.Banks)))
	for i := range s.Banks {
		b := &s.Banks[i]
		w.i64(int64(b.Tile))
		putCache(w, &b.Cache)
		w.u64(b.Requests)
		w.u64(b.Misses)
		w.u64(b.Flushes)
		w.u64(b.Writeback)
	}

	w.u64(s.SMC.Gen)
	putU32s(w, s.SMC.CodePages)
	w.u64(uint64(len(s.SMC.Inval)))
	for _, pi := range s.SMC.Inval {
		w.u32(pi.Page)
		w.u64(pi.Gen)
	}

	putUints(w, &s.Metrics)
	putUints(w, &s.Faults)

	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// DecodeState parses a snapshot, validating the magic, version,
// checksum, and every length field.
func DecodeState(data []byte) (*State, error) {
	body, err := checkFrame(data, stateMagic)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body}

	s := &State{}
	s.Seq = r.u64()
	s.Cycles = r.u64()

	for i := range s.CPU.R {
		s.CPU.R[i] = r.u32()
	}
	s.CPU.Flags = r.u32()
	s.CPU.PC = r.u32()

	s.Kern.Exited = r.b()
	s.Kern.ExitCode = int32(r.i64())
	s.Kern.Stdout = r.blob()
	s.Kern.Stdin = r.blob()
	s.Kern.StdinOff = r.i64()
	s.Kern.Brk = r.u32()
	s.Kern.MmapTop = r.u32()
	s.Kern.Clock = r.u32()
	s.Kern.Calls = r.u64()

	nPages := r.count(guest.PageBytes + 1)
	s.Mem = &guest.MemImage{Pages: make(map[uint32][]byte, nPages)}
	for i := 0; i < nPages; i++ {
		idx := r.u32()
		if r.err != nil || r.remaining() < guest.PageBytes {
			r.fail("checkpoint: truncated memory page")
			break
		}
		page := make([]byte, guest.PageBytes)
		copy(page, r.buf[r.off:])
		r.off += guest.PageBytes
		if _, dup := s.Mem.Pages[idx]; dup {
			r.fail("checkpoint: duplicate memory page %d", idx)
			break
		}
		s.Mem.Pages[idx] = page
	}

	s.MMU.Page = getU32s(r)
	s.MMU.Frame = getU32s(r)
	if n := r.count(1); r.err == nil {
		s.MMU.Used = make([]uint64, n)
		for i := range s.MMU.Used {
			s.MMU.Used[i] = r.u64()
		}
	}
	if n := r.count(1); r.err == nil {
		s.MMU.Valid = make([]bool, n)
		for i := range s.MMU.Valid {
			s.MMU.Valid[i] = r.b()
		}
	}
	s.MMU.Stamp = r.u64()
	s.MMU.Lookups = r.u64()
	s.MMU.Misses = r.u64()
	s.MMU.Flushes = r.u64()
	if n := r.count(2); r.err == nil {
		s.MMU.PT = make([]mmu.PTEntry, n)
		for i := range s.MMU.PT {
			s.MMU.PT[i] = mmu.PTEntry{VPN: r.u32(), Frame: r.u32()}
		}
	}
	s.MMU.NextFrame = r.u32()
	s.MMU.Walks = r.u64()

	getCache(r, &s.DL1)

	s.L1.PCs = getU32s(r)
	s.L1.Lookups = r.u64()
	s.L1.Hits = r.u64()
	s.L1.Flushes = r.u64()
	s.L1.Chains = r.u64()

	s.L2C.PCs = getU32s(r)
	s.L2C.Accesses = r.u64()
	s.L2C.Misses = r.u64()
	s.L2C.Stores = r.u64()

	if n := r.count(2); r.err == nil {
		s.Queues = make([]QueuedPC, n)
		for i := range s.Queues {
			s.Queues[i] = QueuedPC{PC: r.u32(), Depth: int32(r.i64())}
		}
	}
	s.Spec = getU32s(r)
	s.Bad = getU32s(r)

	if n := r.count(8); r.err == nil {
		s.Banks = make([]BankState, n)
		for i := range s.Banks {
			b := &s.Banks[i]
			b.Tile = int32(r.i64())
			getCache(r, &b.Cache)
			b.Requests = r.u64()
			b.Misses = r.u64()
			b.Flushes = r.u64()
			b.Writeback = r.u64()
		}
	}

	s.SMC.Gen = r.u64()
	s.SMC.CodePages = getU32s(r)
	if n := r.count(2); r.err == nil {
		s.SMC.Inval = make([]PageInval, n)
		for i := range s.SMC.Inval {
			s.SMC.Inval[i] = PageInval{Page: r.u32(), Gen: r.u64()}
		}
	}

	getUints(r, &s.Metrics)
	getUints(r, &s.Faults)

	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", r.remaining())
	}
	return s, nil
}

// checkFrame validates magic, version and the trailing CRC32, returning
// the body between the header and the checksum.
func checkFrame(data []byte, magic string) ([]byte, error) {
	hdr := len(magic) + 2
	if len(data) < hdr+4 {
		return nil, fmt.Errorf("checkpoint: input too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != codecVer {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", v, codecVer)
	}
	payload := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (got %#x, want %#x)", got, want)
	}
	return payload[hdr:], nil
}
