package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTracer() *Tracer {
	t := New(Options{
		SampleInterval: 100,
		Tiles:          2,
		Counts:         []string{"lookups", "hits"},
		Gauges:         []string{"queue"},
		Ratios:         []Ratio{{Name: "hit_rate", Num: 1, Den: 0}},
	})
	t.SetProcName(5, "tile 5 exec (1,1)")
	t.SetProcName(4, "tile 4 manager (0,1)")
	t.Span(5, "dispatch", 10, 42, "pc", 0x1000, "hit", 1)
	t.Instant(4, "enqueue", 12, "pc", 0x2000, "depth", 1)
	t.Counter(4, "transQ", 13, 3)
	t.Count(0, 10, 1)
	t.Count(1, 10, 1)
	t.Count(0, 150, 2)
	t.Gauge(0, 20, 7)
	t.Gauge(0, 30, 4) // window keeps the max
	t.Busy(1, 40, 55)
	return t
}

// TestWriteJSONParses checks the exporter emits valid Chrome
// trace_event JSON with the expected shape.
func TestWriteJSONParses(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 proc names × (name + sort index) + 3 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d trace events, want 7", len(doc.TraceEvents))
	}
	var span map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			span = ev
		}
	}
	if span == nil {
		t.Fatal("no complete (X) event in output")
	}
	if span["dur"].(float64) != 32 || span["ts"].(float64) != 10 {
		t.Errorf("span ts/dur = %v/%v, want 10/32", span["ts"], span["dur"])
	}
	args := span["args"].(map[string]any)
	if args["pc"].(float64) != 0x1000 {
		t.Errorf("span arg pc = %v, want %d", args["pc"], 0x1000)
	}
}

// TestWriteJSONDeterministic pins byte-identical output for identical
// event streams.
func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical tracers serialized differently")
	}
}

// TestEventsTimelineOrder: events come out by (time, tile, emission),
// whatever order they were emitted in — including events emitted after
// an earlier call already ordered the ones before them.
func TestEventsTimelineOrder(t *testing.T) {
	tr := New(Options{})
	emit := func(pid int, name string, ts uint64) { tr.Instant(pid, name, ts, "", 0, "", 0) }
	names := func() string {
		var s []string
		for _, e := range tr.Events() {
			s = append(s, e.Name)
		}
		return strings.Join(s, " ")
	}
	emit(3, "c", 20)
	emit(1, "b1", 20)
	emit(1, "a", 10)
	emit(1, "b2", 20)
	emit(0, "z", 30)
	if got, want := names(), "a b1 b2 c z"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	emit(1, "b3", 20)
	emit(0, "first", 0)
	emit(3, "c2", 20)
	if got, want := names(), "first a b1 b2 b3 c c2 z"; got != want {
		t.Fatalf("after more emission: order %q, want %q", got, want)
	}
}

// TestWriteFiles: the JSON goes to the path given and, with sampling
// on, the CSV next to it; both hold what WriteJSON and WriteCSV write.
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTracer()
	csvPath, err := tr.WriteFiles(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "run.csv"); csvPath != want {
		t.Fatalf("CSV written to %q, want %q", csvPath, want)
	}
	for path, write := range map[string]func(io.Writer) error{
		filepath.Join(dir, "run.json"): tr.WriteJSON, csvPath: tr.WriteCSV,
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d bytes (err %v), want %d", path, len(got), err, want.Len())
		}
	}
	if csvPath, err := New(Options{}).WriteFiles(filepath.Join(dir, "plain.json")); err != nil || csvPath != "" {
		t.Errorf("timeline-only tracer: CSV %q, err %v; want none", csvPath, err)
	}
}

// TestStringEscaping covers names that need JSON escaping.
func TestStringEscaping(t *testing.T) {
	tr := New(Options{})
	tr.Instant(0, "a\"b\\c\x01", 1, "", 0, "", 0)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("escaped output does not parse: %v", err)
	}
	if got := doc.TraceEvents[0]["name"]; got != "a\"b\\c\x01" {
		t.Errorf("name round-tripped to %q", got)
	}
}

// TestSamplerAggregation checks window bucketing, gauge max, busy
// attribution, and the CSV shape.
func TestSamplerAggregation(t *testing.T) {
	tr := sampleTracer()
	if got := tr.CountTotal(0); got != 3 {
		t.Errorf("CountTotal(0) = %d, want 3", got)
	}
	if got := tr.BusyTotal(1); got != 55 {
		t.Errorf("BusyTotal(1) = %d, want 55", got)
	}
	if tr.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", tr.Windows())
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d, want header + 2 windows:\n%s", len(lines), buf.String())
	}
	wantHeader := "window_start,lookups,hits,hit_rate,queue,tile0_occ_pct,tile1_occ_pct"
	if lines[0] != wantHeader {
		t.Errorf("header = %q, want %q", lines[0], wantHeader)
	}
	if lines[1] != "0,1,1,1.0000,7,0.00,55.00" {
		t.Errorf("window 0 = %q", lines[1])
	}
	if lines[2] != "100,2,0,0.0000,0,0.00,0.00" {
		t.Errorf("window 1 = %q", lines[2])
	}
}

// TestNilTracerSafe verifies the whole emission surface is a no-op on
// a nil tracer — the disabled path — and allocates nothing.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tr.SetProcName(1, "x")
		tr.Span(1, "s", 0, 10, "a", 1, "b", 2)
		tr.Instant(1, "i", 5, "", 0, "", 0)
		tr.Counter(1, "c", 5, 1)
		tr.Count(0, 5, 1)
		tr.Busy(0, 5, 1)
		tr.Gauge(0, 5, 1)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer emission allocated %.1f times per run, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Windows() != 0 || tr.Sampling() || tr.Events() != nil {
		t.Error("nil tracer reports recorded state")
	}
}

// BenchmarkDisabledEmit measures the per-call cost of the disabled
// path (a nil test and return) — the overhead every instrumented site
// pays on untraced runs.
func BenchmarkDisabledEmit(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Span(5, "dispatch", uint64(i), uint64(i+10), "pc", 1, "", 0)
		tr.Count(0, uint64(i), 1)
	}
}
