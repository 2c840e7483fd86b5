package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// TestRecordRoundTrip: the record codec is canonical too.
func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{
		Config: RecordConfig{
			Workload: "181.mcf", Slaves: 6, Speculative: true, L15Banks: 2,
			MemBanks: 4, Optimize: true, MorphThreshold: 5,
			FaultPlan: "fail:7@150000",
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

// TestVersionGate: well-formed record frames of the older layouts are
// rejected by the version check — not misread. Version 2 is the last
// with the tiered-translation section, version 3 the last with a fault
// seed, version 4 the last with recovery settings beside the fault plan.
func TestVersionGate(t *testing.T) {
	enc := (&Record{Config: RecordConfig{Workload: "164.gzip"}}).Encode()
	if _, err := checkFrame(enc, recordMagic); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	for _, ver := range []uint16{2, 3, 4} {
		want := fmt.Sprintf("checkpoint: unsupported version %d (want %d)", ver, codecVer)
		old := withVersion(enc, ver)
		if _, err := checkFrame(old, recordMagic); err == nil || err.Error() != want {
			t.Errorf("version %d: checkFrame = %v, want %q", ver, err, want)
		}
		if _, err := DecodeRecord(old); err == nil || err.Error() != want {
			t.Errorf("version %d: DecodeRecord = %v, want %q", ver, err, want)
		}
	}
}

// FuzzRecordDecode hammers the record decoder with mutated inputs: it
// must never panic or over-allocate, and anything it does accept must
// re-encode canonically.
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
	f.Add(withVersion(rec.Encode(), 3))
	f.Add(withVersion(rec.Encode(), 4))
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
