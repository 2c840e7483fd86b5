package bench

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"tilevm/internal/core"
	"tilevm/internal/guest"
	"tilevm/internal/sim"
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

	// What the serial side's event kernel did (sim.Stats): counts, and
	// the same on any host. The fleet's slots are independent, so the
	// serial loop dispatches them one at a time; InterleavedSwitches is
	// the same fleet with all slots in one heap — what every serial
	// fleet ran on before, still what a coupled one runs on, forced
	// here with a DispatchLog that discards — which makes the same
	// SerialDispatches with more of them goroutine switches.
	SerialDispatches    uint64 `json:"serial_dispatches"`
	SerialSwitches      uint64 `json:"serial_switches"`
	InterleavedSwitches uint64 `json:"interleaved_switches"`

	// Identical is the determinism gate: the sharded FleetResult —
	// per-guest cycles, exit codes, state hashes, per-tile counters,
	// fleet counters — compared whole against the serial run's, and so
	// is the interleaved one, with its dispatch count.
	Identical bool `json:"identical"`
}

// FleetParallelBench runs a 12-guest gzip/mcf fleet on an 8×8 fabric
// (8 VM slots; no faults, deadlines or tracer, so the slots are
// independent and the sharded engine engages) once with the serial
// loop, once with the given worker count and once interleaved. It
// reports the first two wall clocks, the serial kernel's counts and
// whether the three results are identical. This is the parallel_sim
// entry simbench records and benchcheck gates on.
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
	run := func(simWorkers int, interleaved bool) (*core.FleetResult, sim.Stats, float64, error) {
		cfg := core.DefaultConfig()
		cfg.Params.Width, cfg.Params.Height = 8, 8
		cfg.SimWorkers = simWorkers
		cfg.Interrupt = core.NewInterruptHandle()
		if interleaved {
			cfg.DispatchLog = io.Discard
		}
		start := time.Now()
		res, err := core.RunFleet(imgs, cfg, core.FleetConfig{})
		if err != nil {
			return nil, sim.Stats{}, 0, fmt.Errorf("fleet-parallel bench: workers=%d: %w", simWorkers, err)
		}
		return res, cfg.Interrupt.KernelStats(), time.Since(start).Seconds(), nil
	}
	serialRes, serialSt, serialSecs, err := run(1, false)
	if err != nil {
		return nil, err
	}
	shardedRes, _, shardedSecs, err := run(workers, false)
	if err != nil {
		return nil, err
	}
	interRes, interSt, _, err := run(1, true)
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
		Identical: reflect.DeepEqual(serialRes, shardedRes) && reflect.DeepEqual(serialRes, interRes) &&
			serialSt.Dispatches == interSt.Dispatches,
		SerialDispatches:    serialSt.Dispatches,
		SerialSwitches:      serialSt.Switches,
		InterleavedSwitches: interSt.Switches,
	}, nil
}
