package core

import (
	"fmt"

	"tilevm/internal/raw"
	"tilevm/internal/trace"
)

// Sampler count series: per-window event counts the engine feeds the
// tracer's interval sampler. Each series is incremented at the same
// site as (or a site provably equivalent to) the matching metrics.Set
// counter, so window sums equal the end-of-run totals — a property the
// tests pin (TestTraceSamplesSumToMetrics).
const (
	tsDispatches   = iota // metrics.BlockDispatches
	tsL1Lookups           // metrics.L1CLookups
	tsL1Hits              // metrics.L1CHits
	tsL15Lookups          // metrics.L15Lookups
	tsL15Hits             // metrics.L15Hits
	tsDemandMisses        // metrics.DemandMisses
	tsTranslations        // metrics.Translations
	tsDL1Accesses         // metrics.DL1Accesses
	tsDL1Misses           // metrics.DL1Misses
	tsL2DRequests         // metrics.L2DRequests
	tsL2DMisses           // metrics.L2DMisses
	tsTLBMisses           // metrics.TLBMisses
	numTraceCounts
)

// Sampler gauge series (window maximum).
const (
	tgTransQueue = iota // manager translation-queue depth
	numTraceGauges
)

// traceCountNames are the CSV column names, aligned with the ts*
// constants.
var traceCountNames = []string{
	"dispatches",
	"l1c_lookups", "l1c_hits",
	"l15_lookups", "l15_hits",
	"demand_misses", "translations",
	"dl1_accesses", "dl1_misses",
	"l2d_requests", "l2d_misses",
	"tlb_misses",
}

var traceGaugeNames = []string{"trans_queue_max"}

// NewTracer builds a tracer with the engine's sampler schema: the
// count series above, the translation-queue gauge, per-tile occupancy
// over the 4×4 grid, and derived hit/miss-rate columns. sampleInterval
// is the window width in cycles; 0 records the event timeline only.
func NewTracer(sampleInterval uint64) *trace.Tracer {
	return NewTracerFor(DefaultConfig().Params, sampleInterval)
}

// NewTracerFor is NewTracer for an arbitrary fabric: the per-tile
// occupancy columns cover p.Tiles() tiles, so fleet runs on larger
// grids trace every slot.
func NewTracerFor(p raw.Params, sampleInterval uint64) *trace.Tracer {
	return trace.New(trace.Options{
		SampleInterval: sampleInterval,
		Tiles:          p.Tiles(),
		Counts:         traceCountNames,
		Gauges:         traceGaugeNames,
		Ratios: []trace.Ratio{
			{Name: "l1c_hit_rate", Num: tsL1Hits, Den: tsL1Lookups},
			{Name: "l15_hit_rate", Num: tsL15Hits, Den: tsL15Lookups},
			{Name: "dl1_miss_rate", Num: tsDL1Misses, Den: tsDL1Accesses},
			{Name: "l2d_miss_rate", Num: tsL2DMisses, Den: tsL2DRequests},
		},
	})
}

// trc is the engine's trace sink (nil when tracing is off; all
// emission methods are no-ops on nil).
func (e *engine) trc() *trace.Tracer { return e.cfg.Tracer }

// registerTraceProcs labels each tile's viewer row with its role and
// grid coordinates, e.g. "tile 5 exec (1,1)". Called at every
// admission; a tile the slot has lost keeps the label it had.
func (e *engine) registerTraceProcs() {
	t := e.trc()
	if t == nil {
		return
	}
	name := func(tile int, role string) {
		if e.vmLabel != "" {
			role = role + " " + e.vmLabel
		}
		x, y := e.cfg.Params.XY(tile)
		t.SetProcName(tile, fmt.Sprintf("tile %d %s (%d,%d)", tile, role, x, y))
	}
	name(e.pl.sys, "syscall")
	name(e.pl.exec, "exec")
	name(e.pl.manager, "manager")
	name(e.pl.mmu, "mmu")
	for _, tl := range e.pl.l15 {
		name(tl, "l1.5")
	}
	for _, tl := range e.pl.slaves {
		name(tl, "slave")
	}
	for _, tl := range e.pl.banks {
		name(tl, "bank")
	}
	for _, tl := range e.pl.idle {
		name(tl, "idle")
	}
}

// traceQueueDepth emits the manager's translation-queue depth as both
// a viewer counter track and a sampler gauge. queuedLen is an O(queue)
// scan, so callers must hold the non-nil guard (the disabled path must
// not pay for the scan).
func (st *managerState) traceQueueDepth() {
	t := st.e.trc()
	if t == nil {
		return
	}
	n := uint64(st.queuedLen())
	now := st.c.Now()
	t.Counter(st.e.pl.manager, "trans_queue", now, n)
	t.Gauge(tgTransQueue, now, n)
}
