package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// RecordConfig is the complete set of inputs that determine a run.
// The simulation is deterministic, so re-running with these inputs
// reproduces the recorded run bit for bit; everything else in the
// Record is for verification.
type RecordConfig struct {
	Workload  string // named synthetic workload, or
	ImagePath string // path to a guest image file

	Slaves         int
	Speculative    bool
	L15Banks       int
	MemBanks       int
	Optimize       bool
	Morph          bool
	MorphThreshold int
	MaxCycles      uint64

	// FaultPlan is the whole fault configuration, in fault.Plan.String()
	// round-trippable form: recovery and checkpointing follow from it.
	FaultPlan string
}

// RecordFinal is the recorded run's outcome, compared against replay.
type RecordFinal struct {
	Cycles    uint64
	ExitCode  int32
	StateHash uint64
}

// Record is a recorded run: the inputs, the event journal, and the
// outcome.
type Record struct {
	Config RecordConfig
	Events []Event
	Final  RecordFinal
}

// Encode serializes the record in the versioned, checksummed TVRC
// format (see encode.go).
func (rec *Record) Encode() []byte {
	w := &writer{buf: make([]byte, 0, 256+16*len(rec.Events))}
	w.raw([]byte(recordMagic))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, codecVer)

	c := &rec.Config
	w.str(c.Workload)
	w.str(c.ImagePath)
	w.i64(int64(c.Slaves))
	w.b(c.Speculative)
	w.i64(int64(c.L15Banks))
	w.i64(int64(c.MemBanks))
	w.b(c.Optimize)
	w.b(c.Morph)
	w.i64(int64(c.MorphThreshold))
	w.u64(c.MaxCycles)
	w.str(c.FaultPlan)

	w.u64(uint64(len(rec.Events)))
	for _, e := range rec.Events {
		w.u64(e.Cycle)
		w.u64(uint64(e.Kind))
		w.u64(e.A)
		w.u64(e.B)
	}

	w.u64(rec.Final.Cycles)
	w.i64(int64(rec.Final.ExitCode))
	w.u64(rec.Final.StateHash)

	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// DecodeRecord parses a record, validating framing and lengths.
func DecodeRecord(data []byte) (*Record, error) {
	body, err := checkFrame(data, recordMagic)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body}

	rec := &Record{}
	c := &rec.Config
	c.Workload = r.str()
	c.ImagePath = r.str()
	c.Slaves = int(r.i64())
	c.Speculative = r.b()
	c.L15Banks = int(r.i64())
	c.MemBanks = int(r.i64())
	c.Optimize = r.b()
	c.Morph = r.b()
	c.MorphThreshold = int(r.i64())
	c.MaxCycles = r.u64()
	c.FaultPlan = r.str()

	if n := r.count(4); r.err == nil {
		rec.Events = make([]Event, n)
		for i := range rec.Events {
			rec.Events[i] = Event{Cycle: r.u64(), Kind: EventKind(r.u64()), A: r.u64(), B: r.u64()}
		}
	}

	rec.Final.Cycles = r.u64()
	rec.Final.ExitCode = int32(r.i64())
	rec.Final.StateHash = r.u64()

	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", r.remaining())
	}
	return rec, nil
}

// WriteRecordFile writes the record to a file.
func WriteRecordFile(path string, rec *Record) error {
	return os.WriteFile(path, rec.Encode(), 0o644)
}

// ReadRecordFile loads a record from a file.
func ReadRecordFile(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRecord(data)
}
