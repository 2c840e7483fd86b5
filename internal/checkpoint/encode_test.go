package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"tilevm/internal/cachesim"
	"tilevm/internal/guest"
	"tilevm/internal/mmu"
)

// sampleState builds a representative snapshot exercising every section
// of the encoding: sparse memory pages, TLB and page-table entries,
// cache lines, code-cache PC lists, queued work, banks, and SMC maps.
func sampleState() *State {
	page := func(fill byte) []byte {
		p := make([]byte, guest.PageBytes)
		for i := range p {
			p[i] = fill + byte(i)
		}
		return p
	}
	s := &State{
		Seq:    3,
		Cycles: 314_159,
		CPU:    guest.CPU{R: [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}, Flags: 0x246, PC: 0x80481a0},
		Kern: guest.KernelState{
			Exited:   false,
			ExitCode: 0,
			Stdout:   []byte("hello from the guest\n"),
			Stdin:    []byte("input"),
			StdinOff: 2,
			Brk:      0x0900_0000,
			MmapTop:  0xbf00_0000,
			Clock:    12,
			Calls:    34,
		},
		Mem: &guest.MemImage{Pages: map[uint32][]byte{
			0:      page(0x11),
			7:      page(0x22),
			0x8048: page(0x33),
		}},
		MMU: mmu.State{
			Page:      []uint32{1, 2, 3},
			Frame:     []uint32{10, 20, 30},
			Used:      []uint64{5, 6, 7},
			Valid:     []bool{true, false, true},
			Stamp:     8,
			Lookups:   100,
			Misses:    9,
			Flushes:   1,
			PT:        []mmu.PTEntry{{VPN: 4, Frame: 40}, {VPN: 5, Frame: 50}},
			NextFrame: 51,
			Walks:     9,
		},
		DL1: cachesim.State{
			Lines: []cachesim.LineState{
				{Tag: 0x1000, Valid: true, Dirty: true, Used: 77},
				{Tag: 0, Valid: false, Dirty: false, Used: 0},
			},
			Stamp: 78, Accesses: 1000, Misses: 50, Evictions: 12,
		},
		L1:     CodeL1State{PCs: []uint32{0x8048000, 0x8048020}, Lookups: 5000, Hits: 4900, Flushes: 2, Chains: 40},
		L2C:    CodeL2State{PCs: []uint32{0x8048000, 0x8048020, 0x8048040}, Accesses: 600, Misses: 30, Stores: 90},
		Queues: []QueuedPC{{PC: 0x8048060, Depth: 1}, {PC: 0x8048080, Depth: -2}},
		Spec:   []uint32{0x80480a0},
		Bad:    []uint32{0xdeadbeef},
		Banks: []BankState{{
			Tile: 10,
			Cache: cachesim.State{
				Lines: []cachesim.LineState{{Tag: 0x42, Valid: true, Dirty: false, Used: 3}},
				Stamp: 4, Accesses: 200, Misses: 20, Evictions: 2,
			},
			Requests: 200, Misses: 20, Flushes: 1, Writeback: 7,
		}},
		SMC: SMCState{
			Gen:       6,
			CodePages: []uint32{0x8048},
			Inval:     []PageInval{{Page: 0x8048, Gen: 5}},
		},
	}
	s.Metrics.BlockDispatches = 123_456
	s.Metrics.HostInsts = 789_012
	s.Faults.Fails = 4
	return s
}

// TestStateRoundTrip pins the canonical-encoding contract:
// encode → decode → encode is byte-identical, and the decoded state
// re-encodes every section faithfully.
func TestStateRoundTrip(t *testing.T) {
	s := sampleState()
	enc1 := EncodeState(s)
	dec, err := DecodeState(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := EncodeState(dec)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode(decode(encode(s))) differs: %d vs %d bytes", len(enc1), len(enc2))
	}
	if dec.Seq != s.Seq || dec.Cycles != s.Cycles || dec.CPU != s.CPU {
		t.Fatalf("core fields did not survive: %+v", dec)
	}
	if len(dec.Mem.Pages) != len(s.Mem.Pages) {
		t.Fatalf("memory pages: got %d, want %d", len(dec.Mem.Pages), len(s.Mem.Pages))
	}
	for idx, p := range s.Mem.Pages {
		if !bytes.Equal(dec.Mem.Pages[idx], p) {
			t.Fatalf("memory page %d content differs", idx)
		}
	}
	if dec.Metrics != s.Metrics || dec.Faults != s.Faults {
		t.Fatal("counter sections did not survive")
	}
}

// TestStateDecodeRejectsCorruption: every single-bit flip of a valid
// encoding must be rejected (the CRC covers the whole frame), and
// truncations must fail cleanly.
func TestStateDecodeRejectsCorruption(t *testing.T) {
	enc := EncodeState(sampleState())
	for off := 0; off < len(enc); off += 97 {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x10
		if _, err := DecodeState(bad); err == nil {
			t.Fatalf("decode accepted a bit flip at offset %d", off)
		}
	}
	for _, n := range []int{0, 3, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeState(enc[:n]); err == nil {
			t.Fatalf("decode accepted a truncation to %d bytes", n)
		}
	}
}

// TestRecordRoundTrip: the record codec is canonical too.
func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{
		Config: RecordConfig{
			Workload: "181.mcf", Slaves: 6, Speculative: true, L15Banks: 2,
			MemBanks: 4, Optimize: true, MorphThreshold: 5,
			FaultPlan: "fail:7@150000", FaultSeed: 42, FaultRecovery: true,
			Recovery: 1, CheckpointInterval: 100_000,
		},
		Events: []Event{
			{Cycle: 100, Kind: EvCheckpoint, A: 0, B: 12},
			{Cycle: 250, Kind: EvSyscall, A: 4, B: 1},
			{Cycle: 900, Kind: EvFinal, A: 0, B: 0xabcdef},
		},
		Final: RecordFinal{Cycles: 900, ExitCode: 10, StateHash: 0xabcdef},
	}
	enc1 := rec.Encode()
	dec, err := DecodeRecord(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, dec.Encode()) {
		t.Fatal("encode(decode(encode(rec))) differs")
	}
	if dec.Config != rec.Config || dec.Final != rec.Final || len(dec.Events) != len(rec.Events) {
		t.Fatalf("record did not survive the round trip: %+v", dec)
	}
}

// withVersion re-frames an encoding under another codec version, with
// a valid CRC, so only the version gate can reject it.
func withVersion(enc []byte, ver uint16) []byte {
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint16(out[4:], ver)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestVersionGate: a well-formed frame of version 2, the last version
// with the tiered-translation section, is rejected by the version check
// — not misread — for snapshots and records alike.
func TestVersionGate(t *testing.T) {
	want := fmt.Sprintf("checkpoint: unsupported version 2 (want %d)", codecVer)
	for _, c := range []struct {
		magic  string
		enc    []byte
		decode func([]byte) error
	}{
		{stateMagic, EncodeState(sampleState()), func(b []byte) error { _, err := DecodeState(b); return err }},
		{recordMagic, (&Record{Config: RecordConfig{Workload: "164.gzip"}}).Encode(),
			func(b []byte) error { _, err := DecodeRecord(b); return err }},
	} {
		if _, err := checkFrame(c.enc, c.magic); err != nil {
			t.Fatalf("%s: current version rejected: %v", c.magic, err)
		}
		old := withVersion(c.enc, 2)
		if _, err := checkFrame(old, c.magic); err == nil || err.Error() != want {
			t.Errorf("%s: checkFrame = %v, want %q", c.magic, err, want)
		}
		if err := c.decode(old); err == nil || err.Error() != want {
			t.Errorf("%s: decode = %v, want %q", c.magic, err, want)
		}
	}
}

// FuzzCheckpointDecode hammers the snapshot decoder with mutated
// inputs: it must never panic or over-allocate, and anything it does
// accept must re-encode canonically.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with a page-free snapshot: guest pages are 64 KiB each, and a
	// multi-page seed slows mutation to a crawl without adding coverage.
	small := sampleState()
	small.Mem = nil
	f.Add(EncodeState(small))
	f.Add(withVersion(EncodeState(small), 2))
	f.Add(EncodeState(&State{}))
	f.Add([]byte("TVCK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeState(data)
		if err != nil {
			return
		}
		enc := EncodeState(s)
		s2, err := DecodeState(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted input does not decode: %v", err)
		}
		if !bytes.Equal(enc, EncodeState(s2)) {
			t.Fatal("accepted input is not canonical under re-encoding")
		}
	})
}

// FuzzRecordDecode does the same for the record codec.
func FuzzRecordDecode(f *testing.F) {
	rec := &Record{
		Config: RecordConfig{Workload: "164.gzip", Slaves: 6},
		Events: []Event{{Cycle: 1, Kind: EvFault, A: 2, B: 3}},
		Final:  RecordFinal{Cycles: 1},
	}
	f.Add(rec.Encode())
	f.Add(withVersion(rec.Encode(), 2))
	f.Add((&Record{}).Encode())
	f.Add([]byte("TVRC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := r.Encode()
		r2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted record does not decode: %v", err)
		}
		if !bytes.Equal(enc, r2.Encode()) {
			t.Fatal("accepted record is not canonical under re-encoding")
		}
	})
}
