package bench

import (
	"fmt"
	"reflect"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/workload"
)

// fleetParallelGuests is the oversubscribed gzip/mcf mix the parallel
// benchmark admits: more guests than the 8×8 fabric's 8 slots, so the
// run exercises fenced re-admissions as well as steady-state sharding.
const fleetParallelGuests = 12

// FleetParallelResult records the parallel-engine benchmark: the same
// oversubscribed fleet run on the serial event loop and on the sharded
// engine, with the identity check the engine promises.
type FleetParallelResult struct {
	Guests  int `json:"guests"`
	Slots   int `json:"slots"`
	Workers int `json:"workers"`

	SerialSeconds  float64 `json:"serial_seconds"`
	ShardedSeconds float64 `json:"sharded_seconds"`
	Speedup        float64 `json:"speedup"`

	// Identical is the determinism gate: the sharded FleetResult —
	// per-guest cycles, exit codes, state hashes, per-tile counters,
	// fleet counters — compared whole against the serial run's.
	Identical bool `json:"identical"`
}

// FleetParallelBench runs a 12-guest gzip/mcf fleet on an 8×8 fabric
// (8 VM slots; no faults, deadlines or tracer, so the sharded engine
// engages) once with
// the serial loop and once with the given worker count. It reports
// both wall clocks and whether the two results are identical. This is
// the parallel_sim entry simbench records and benchcheck gates on.
func FleetParallelBench(workers int) (*FleetParallelResult, error) {
	if workers < 2 {
		return nil, fmt.Errorf("fleet-parallel bench: want workers >= 2, got %d", workers)
	}
	rotation := []string{"164.gzip", "181.mcf"}
	imgs := make([]*guest.Image, fleetParallelGuests)
	for i := range imgs {
		p, ok := workload.ByName(rotation[i%len(rotation)])
		if !ok {
			return nil, fmt.Errorf("fleet-parallel bench: workload %s missing", rotation[i%len(rotation)])
		}
		imgs[i] = p.Build()
	}
	run := func(simWorkers int) (*core.FleetResult, float64, error) {
		cfg := core.DefaultConfig()
		cfg.Params.Width, cfg.Params.Height = 8, 8
		cfg.SimWorkers = simWorkers
		start := time.Now()
		res, err := core.RunFleet(imgs, cfg, core.FleetConfig{})
		if err != nil {
			return nil, 0, fmt.Errorf("fleet-parallel bench: workers=%d: %w", simWorkers, err)
		}
		return res, time.Since(start).Seconds(), nil
	}
	serialRes, serialSecs, err := run(1)
	if err != nil {
		return nil, err
	}
	shardedRes, shardedSecs, err := run(workers)
	if err != nil {
		return nil, err
	}
	return &FleetParallelResult{
		Guests:         fleetParallelGuests,
		Slots:          serialRes.Slots,
		Workers:        workers,
		SerialSeconds:  serialSecs,
		ShardedSeconds: shardedSecs,
		Speedup:        serialSecs / shardedSecs,
		Identical:      reflect.DeepEqual(serialRes, shardedRes),
	}, nil
}
