package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The TVRC record format (Record.Encode, DecodeRecord): a 4-byte magic,
// a fixed-width little-endian version, a varint-encoded body, and a
// trailing CRC32 (IEEE) over everything before it. The encoding is
// canonical, so encode(decode(encode(r))) == encode(r) byte for byte.
const (
	recordMagic = "TVRC"
	// codecVer 5: version 4 frames carry recovery settings (the
	// recovery on/off flag, the recovery mode, the checkpoint interval),
	// version 3 frames a fault seed and version 2 frames a
	// tiered-translation section, none of which this decoder reads, so
	// checkFrame rejects them.
	codecVer = 5
)

type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
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
