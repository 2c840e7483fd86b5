// Package trace records a deterministic timeline of a simulated run in
// virtual cycles: spans (work with a duration), instant events, and
// counter tracks, each attributed to a tile, exported in the Chrome
// trace_event JSON format loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. A companion interval sampler aggregates counters
// into fixed-width virtual-time windows and writes them as CSV.
//
// The tracer is an introspection layer, not part of the machine model:
// it charges no virtual cycles and uses only virtual timestamps (never
// wall clock). Events and WriteJSON give the timeline ordered by
// virtual time, then tile, then emission order — not in the order the
// event loop dispatched the tiles. That order is the same on every
// loop that can run a machine: each tile's events are emitted in the
// same order wherever its kernel runs, and no two VM slots of a fleet
// share a tile. So two identical runs produce byte-identical trace
// files, and tracing a fleet does not need to pick its loop.
//
// Cost when disabled is zero by construction: every emission method is
// safe on a nil *Tracer (a pointer test and return), takes only scalar
// and constant-string arguments (no interface boxing, no varargs slice),
// and therefore allocates nothing on the disabled path. Call sites only
// need an explicit non-nil guard when *computing* an argument is itself
// expensive.
package trace

import (
	"bufio"
	"cmp"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Phase values follow the Chrome trace_event format.
const (
	phSpan    = 'X' // complete event: ts + dur
	phInstant = 'i' // instant event
	phCounter = 'C' // counter sample
)

// Event is one timeline entry. PID is the tile id (so the viewer shows
// one row group per tile of the 4×4 grid); all tiles use a single
// thread lane, relying on span nesting (a tile kernel is sequential in
// virtual time, so inner spans are always properly contained).
//
// Up to two key/value arguments ride along as fixed fields; K1 == ""
// means no arguments, K2 == "" means one. Values are unsigned and
// written as JSON numbers. (Ph and PID share a word: 88 bytes.)
type Event struct {
	Name string
	Ph   byte
	PID  int32
	TS   uint64 // virtual cycle
	Dur  uint64 // span length in cycles (phSpan only)
	K1   string
	V1   uint64
	K2   string
	V2   uint64
}

// Options configures a Tracer. The count/gauge/ratio series describe
// the sampler schema; they are fixed at construction so that emission
// is an index, not a lookup.
type Options struct {
	// SampleInterval is the sampler window width in cycles; 0 disables
	// interval sampling (the event timeline is always recorded).
	SampleInterval uint64
	// Tiles is the number of tiles whose busy cycles the sampler
	// tracks per window.
	Tiles int
	// Counts names the per-window accumulating series (indexed by
	// position in Tracer.Count).
	Counts []string
	// Gauges names the per-window max-value series (indexed by
	// position in Tracer.Gauge).
	Gauges []string
	// Ratios are derived num/den columns computed at CSV-write time
	// from the count series.
	Ratios []Ratio
}

// Ratio is a derived CSV column: the per-window quotient of two count
// series (a hit rate, a miss rate). An empty window writes 0.
type Ratio struct {
	Name     string
	Num, Den int // indexes into Options.Counts
}

// Tracer collects events and interval samples for one run. The
// simulation executes exactly one tile kernel at a time, so the tracer
// needs no locking; runs executed concurrently (a parallel experiment
// harness) must each own their own Tracer.
type Tracer struct {
	events []Event
	// ordered is how many leading events are in timeline order (see
	// order); emission appends past it.
	ordered int
	// procName[pid] labels the viewer's process rows; registered once
	// at machine construction.
	procNames map[int32]string
	s         *Sampler
}

// New builds a tracer. The event timeline is always on; the interval
// sampler is armed when o.SampleInterval > 0.
func New(o Options) *Tracer {
	t := &Tracer{procNames: map[int32]string{}}
	if o.SampleInterval > 0 {
		t.s = newSampler(o)
	}
	return t
}

// SetProcName labels a tile's row in the viewer (e.g. "tile 5 exec
// (1,1)"). Later registrations of the same pid win, so a re-built
// machine (rollback re-execution) may re-register freely.
func (t *Tracer) SetProcName(pid int, name string) {
	if t == nil {
		return
	}
	t.procNames[int32(pid)] = name
}

// Span records completed work on a tile: [start, end) in virtual
// cycles. Pass k1 == "" for no arguments.
func (t *Tracer) Span(pid int, name string, start, end uint64, k1 string, v1 uint64, k2 string, v2 uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Ph: phSpan, TS: start, Dur: end - start,
		PID: int32(pid), K1: k1, V1: v1, K2: k2, V2: v2,
	})
}

// Instant records a point event on a tile.
func (t *Tracer) Instant(pid int, name string, ts uint64, k1 string, v1 uint64, k2 string, v2 uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Ph: phInstant, TS: ts,
		PID: int32(pid), K1: k1, V1: v1, K2: k2, V2: v2,
	})
}

// Counter records a counter-track sample (rendered as a filled graph
// in the viewer — the translation-queue depth, for instance).
func (t *Tracer) Counter(pid int, name string, ts, v uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Ph: phCounter, TS: ts, PID: int32(pid), K1: name, V1: v,
	})
}

// Count adds n to an accumulating sampler series in the window holding
// ts. A no-op when sampling is off.
func (t *Tracer) Count(series int, ts, n uint64) {
	if t == nil || t.s == nil {
		return
	}
	t.s.count(series, ts, n)
}

// Busy attributes d busy cycles to a tile in the window holding ts.
func (t *Tracer) Busy(tile int, ts, d uint64) {
	if t == nil || t.s == nil {
		return
	}
	t.s.busy(tile, ts, d)
}

// Gauge records an instantaneous value for a gauge series; the window
// keeps the maximum.
func (t *Tracer) Gauge(series int, ts, v uint64) {
	if t == nil || t.s == nil {
		return
	}
	t.s.gauge(series, ts, v)
}

// Sampling reports whether the interval sampler is armed. Use it to
// guard emission sites whose argument computation is itself expensive.
func (t *Tracer) Sampling() bool { return t != nil && t.s != nil }

// Len returns the number of recorded timeline events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded timeline in timeline order (shared
// slice; do not mutate).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.order()
	return t.events
}

// order sorts the events by (virtual time, tile, emission index). It
// sorts 16-byte keys rather than the events themselves, then moves each
// event once, following the permutation's cycles. An earlier call left
// the events before t.ordered in this order, and everything emitted
// since lies after them, so an event's position still ranks it by
// emission among equal (time, tile) pairs.
func (t *Tracer) order() {
	ev := t.events
	if t.ordered == len(ev) {
		return
	}
	type key struct {
		ts       uint64
		pid, idx int32
	}
	keys := make([]key, len(ev))
	for i := range ev {
		keys[i] = key{ev[i].TS, ev[i].PID, int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pid, b.pid); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// Position i takes the event keys[i] names. Marking each filled
	// position as its own source closes the cycle it belongs to.
	for i := range keys {
		if int(keys[i].idx) == i {
			continue
		}
		tmp := ev[i]
		j := i
		for {
			k := int(keys[j].idx)
			keys[j].idx = int32(j)
			if k == i {
				ev[j] = tmp
				break
			}
			ev[j] = ev[k]
			j = k
		}
	}
	t.ordered = len(ev)
}

// WriteJSON writes the timeline in Chrome trace_event format: an object
// with a traceEvents array, one JSON object per line, events in
// timeline order (see Events). Timestamps are virtual cycles written
// into the format's microsecond field — the viewer's time axis
// therefore reads directly in cycles.
//
// The encoder is hand-rolled over strconv so that output depends only
// on the recorded events (byte-identical across identical runs) and
// needs no reflection.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	// Process-name metadata first, in pid order, so the viewer labels
	// rows before any event references them.
	for pid := int32(0); int(pid) < 1024; pid++ {
		name, ok := t.procNames[pid]
		if !ok {
			continue
		}
		writeSep(bw, &first)
		bw.WriteString("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
		writeUint(bw, uint64(pid))
		bw.WriteString(",\"args\":{\"name\":")
		writeString(bw, name)
		bw.WriteString("}}")
		writeSortIndex(bw, pid)
	}
	buf := make([]byte, 0, 64)
	t.order()
	for i := range t.events {
		writeSep(bw, &first)
		t.events[i].write(bw, buf)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteFiles writes the timeline to path and, when interval sampling is
// on, the samples next to it (run.json → run.csv). It returns the CSV's
// path, "" when there is none.
func (t *Tracer) WriteFiles(path string) (csvPath string, err error) {
	if err := writeFile(path, t.WriteJSON); err != nil {
		return "", err
	}
	if !t.Sampling() {
		return "", nil
	}
	csvPath = strings.TrimSuffix(path, ".json") + ".csv"
	return csvPath, writeFile(csvPath, t.WriteCSV)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSortIndex pins the viewer's row order to tile-id order.
func writeSortIndex(bw *bufio.Writer, pid int32) {
	bw.WriteString(",\n{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":")
	writeUint(bw, uint64(pid))
	bw.WriteString(",\"args\":{\"sort_index\":")
	writeUint(bw, uint64(pid))
	bw.WriteString("}}")
}

func writeSep(bw *bufio.Writer, first *bool) {
	if *first {
		*first = false
		return
	}
	bw.WriteString(",\n")
}

func (e *Event) write(bw *bufio.Writer, buf []byte) {
	bw.WriteString("{\"name\":")
	writeString(bw, e.Name)
	bw.WriteString(",\"ph\":\"")
	bw.WriteByte(e.Ph)
	bw.WriteString("\",\"ts\":")
	bw.Write(strconv.AppendUint(buf[:0], e.TS, 10))
	if e.Ph == phSpan {
		bw.WriteString(",\"dur\":")
		bw.Write(strconv.AppendUint(buf[:0], e.Dur, 10))
	}
	bw.WriteString(",\"pid\":")
	bw.Write(strconv.AppendUint(buf[:0], uint64(e.PID), 10))
	bw.WriteString(",\"tid\":0")
	if e.Ph == phInstant {
		bw.WriteString(",\"s\":\"t\"") // thread-scoped instant marker
	}
	if e.K1 != "" {
		bw.WriteString(",\"args\":{")
		writeString(bw, e.K1)
		bw.WriteByte(':')
		bw.Write(strconv.AppendUint(buf[:0], e.V1, 10))
		if e.K2 != "" {
			bw.WriteByte(',')
			writeString(bw, e.K2)
			bw.WriteByte(':')
			bw.Write(strconv.AppendUint(buf[:0], e.V2, 10))
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// writeString writes a JSON string. Trace names are plain ASCII
// identifiers; anything that would need escaping is escaped the
// standard way so the output always parses.
func writeString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString("\\u00")
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}

func writeUint(bw *bufio.Writer, v uint64) {
	var buf [20]byte
	bw.Write(strconv.AppendUint(buf[:0], v, 10))
}
