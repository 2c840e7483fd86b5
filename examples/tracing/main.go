// Tracing: run a workload with the virtual-time tracer attached, write
// a Chrome trace_event timeline plus an interval-sampled CSV, and then
// read a few things back out of the trace programmatically — per-tile
// activity, translation spans, and the sampler's hit-rate windows.
//
// The JSON written here loads directly in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing; docs/observability.md is the field guide to what
// you will see there.
package main

import (
	"fmt"
	"log"

	"tilevm/internal/core"
	"tilevm/internal/trace"
	"tilevm/internal/workload"
)

func main() {
	p, ok := workload.ByName("164.gzip")
	if !ok {
		log.Fatal("workload 164.gzip not registered")
	}
	img := p.Build()

	// Attach a tracer to an otherwise-default run. core.NewTracer wires
	// the engine's sampler schema (hit-rate ratios, translation-queue
	// gauge, per-tile occupancy); the argument is the sampling window in
	// virtual cycles — 0 would record the event timeline only.
	trc := core.NewTracer(10_000)
	cfg := core.DefaultConfig()
	cfg.Tracer = trc

	res, err := core.Run(img, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: %d cycles, %d events traced, %d sample windows\n",
		res.Cycles, trc.Len(), trc.Windows())

	// 1. The Chrome trace. Every event carries a virtual-cycle
	// timestamp and the tile it happened on (pid = tile id), so the
	// viewer shows one row per tile of the 4x4 grid.
	// 2. Next to it, the interval CSV: one row per 10k-cycle window with
	// event counts, derived hit rates, queue-depth maxima, and per-tile
	// occupancy percentages. (WriteJSON and WriteCSV write either one to
	// any io.Writer.)
	csvPath, err := trc.WriteFiles("tracing.json")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote tracing.json — load it at https://ui.perfetto.dev")
	fmt.Printf("wrote %s — graph any column against window_start\n", csvPath)

	// 3. The same data is available in memory. Count translation spans
	// per tile: each one ran on a slave tile of the virtual
	// architecture, so this is the translation load balance.
	perTile := map[int32]int{}
	var translated uint64
	for _, ev := range trc.Events() {
		if ev.Name == "translate" && ev.Ph == 'X' {
			perTile[ev.PID]++
			translated++
		}
	}
	fmt.Printf("\n%d translation spans by slave tile:\n", translated)
	for tile := int32(0); tile < 16; tile++ {
		if n := perTile[tile]; n > 0 {
			fmt.Printf("  tile %2d: %s\n", tile, bar(n))
		}
	}

	// 4. Sampler totals are exact: window sums equal the end-of-run
	// metrics, so the CSV can stand in for the aggregate counters.
	fmt.Printf("\nsampler cross-check: %d dispatches sampled, %d in metrics\n",
		sumWindows(trc), res.M.BlockDispatches)
}

// bar renders a small ASCII histogram bar.
func bar(n int) string {
	s := ""
	for i := 0; i < n && i < 60; i++ {
		s += "#"
	}
	return fmt.Sprintf("%-60s %d", s, n)
}

// sumWindows totals the "dispatches" count series across all windows
// via the exported per-series totals.
func sumWindows(t *trace.Tracer) uint64 {
	return t.CountTotal(0) // series 0 is dispatches in core's schema
}
