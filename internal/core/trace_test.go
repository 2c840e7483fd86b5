package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"tilevm/internal/metrics"
	"tilevm/internal/trace"
)

// tracedRun executes the sumLoop workload with a tracer attached and
// returns the tracer, the result, and the serialized JSON and CSV.
func tracedRun(t *testing.T, interval uint64) (*trace.Tracer, *Result, []byte, []byte) {
	t.Helper()
	trc := NewTracer(interval)
	cfg := DefaultConfig()
	cfg.Tracer = trc
	res, err := Run(sumLoop(4000), cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	var j, c bytes.Buffer
	if err := trc.WriteJSON(&j); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if trc.Sampling() {
		if err := trc.WriteCSV(&c); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
	}
	return trc, res, j.Bytes(), c.Bytes()
}

// TestTraceDeterministic pins the golden property: two identical runs
// produce byte-identical trace JSON and sampler CSV. Everything in the
// trace is virtual time, so any divergence means wall-clock or map
// iteration leaked into the timeline.
func TestTraceDeterministic(t *testing.T) {
	_, _, j1, c1 := tracedRun(t, 5000)
	_, _, j2, c2 := tracedRun(t, 5000)
	if !bytes.Equal(j1, j2) {
		t.Errorf("trace JSON differs across identical runs (%d vs %d bytes)", len(j1), len(j2))
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("sampler CSV differs across identical runs")
	}
}

// TestTraceJSONShape validates the Chrome trace_event output: it must
// parse, contain at least 4 distinct tile rows (the virtual
// architecture is visible as a grid of processes), and include
// translation and memory-system spans.
func TestTraceJSONShape(t *testing.T) {
	_, _, j, _ := tracedRun(t, 0)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(j, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	pids := map[int]bool{}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		pids[ev.PID] = true
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	if len(pids) < 4 {
		t.Errorf("trace shows %d tile rows, want >= 4 (the tiled layout must be visible)", len(pids))
	}
	for _, want := range []string{"translate", "dispatch", "memfill", "mmu", "bank", "l2c_lookup"} {
		if !spans[want] {
			t.Errorf("no %q span in trace", want)
		}
	}
}

// TestTraceSamplesSumToMetrics pins the sampler invariant: each count
// series is incremented at the same site as its metrics.Set counter, so
// window sums must equal the end-of-run totals exactly — and per-tile
// busy totals must equal the run's TileBusy. The fleet row, whose
// slots run one at a time, sums the counters over its guests.
func TestTraceSamplesSumToMetrics(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		trc, res, _, _ := tracedRun(t, 5000)
		checkSamples(t, trc, []metrics.Set{res.M}, res.TileBusy)
	})
	t.Run("fleet-8x8", func(t *testing.T) {
		cfg := fleetCfg(8, 8)
		cfg.Tracer = NewTracerFor(cfg.Params, 50_000)
		fr, err := RunFleet(fleetImgs(t, four...), cfg, FleetConfig{MaxSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		var ms []metrics.Set
		for _, g := range fr.Guests {
			ms = append(ms, g.Result.M)
		}
		checkSamples(t, cfg.Tracer, ms, fr.TileBusy)
	})
}

// checkSamples compares the sampler's totals with the summed counters
// of ms and with busy.
func checkSamples(t *testing.T, trc *trace.Tracer, ms []metrics.Set, busy []uint64) {
	t.Helper()
	var want [numTraceCounts]uint64
	for i := range ms {
		m := &ms[i]
		for s, v := range [numTraceCounts]uint64{
			tsDispatches:   m.BlockDispatches,
			tsL1Lookups:    m.L1CLookups,
			tsL1Hits:       m.L1CHits,
			tsL15Lookups:   m.L15Lookups,
			tsL15Hits:      m.L15Hits,
			tsDemandMisses: m.DemandMisses,
			tsTranslations: m.Translations,
			tsDL1Accesses:  m.DL1Accesses,
			tsDL1Misses:    m.DL1Misses,
			tsL2DRequests:  m.L2DRequests,
			tsL2DMisses:    m.L2DMisses,
			tsTLBMisses:    m.TLBMisses,
		} {
			want[s] += v
		}
	}
	for s, w := range want {
		if got := trc.CountTotal(s); got != w {
			t.Errorf("series %s: window sum %d, metrics say %d", traceCountNames[s], got, w)
		}
	}
	for tile, b := range busy {
		if got := trc.BusyTotal(tile); got != b {
			t.Errorf("tile %d: sampled busy %d, TileBusy says %d", tile, got, b)
		}
	}
}

// TestTracerOffIsDefault guards the zero-cost contract at the config
// level: a default config carries no tracer, and a run without one
// still succeeds (every emission site must tolerate the nil sink).
func TestTracerOffIsDefault(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Tracer != nil {
		t.Fatal("DefaultConfig must not attach a tracer")
	}
	if _, err := Run(sumLoop(500), cfg); err != nil {
		t.Fatalf("untraced run: %v", err)
	}
}
