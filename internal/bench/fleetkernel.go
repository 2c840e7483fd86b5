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

// fleetKernelGuests is the oversubscribed gzip/mcf mix the fleet-kernel
// benchmark admits: more guests than the 8×8 fabric's 8 slots, so the
// run exercises fenced re-admissions as well as steady-state dispatch.
const fleetKernelGuests = 12

// FleetKernelResult records the fleet-kernel benchmark: the same
// oversubscribed fleet dispatched a slot at a time and with every slot
// in one heap, with the identity check the kernel promises.
type FleetKernelResult struct {
	Guests int `json:"guests"`
	Slots  int `json:"slots"`

	Seconds float64 `json:"seconds"`

	// What the event kernel did (sim.Stats): counts, and the same on
	// any host. The fleet's slots are independent, so the kernel
	// dispatches them one at a time; InterleavedSwitches is the same
	// fleet with all slots in one heap — what a coupled fleet runs on,
	// forced here with a DispatchLog that discards — which makes the
	// same Dispatches with more of them goroutine switches.
	Dispatches          uint64 `json:"dispatches"`
	Switches            uint64 `json:"switches"`
	InterleavedSwitches uint64 `json:"interleaved_switches"`

	// Identical is the determinism gate: the interleaved FleetResult —
	// per-guest cycles, exit codes, state hashes, per-tile counters,
	// fleet counters — compared whole against the slot-at-a-time
	// run's, with its dispatch count.
	Identical bool `json:"identical"`
}

// FleetKernelBench runs a 12-guest gzip/mcf fleet on an 8×8 fabric
// (8 VM slots; no faults, deadlines or tracer, so the slots are
// independent) once a slot at a time and once interleaved. It reports
// the first wall clock (the interleaved run also pays for formatting
// its dispatch log), the kernel's counts and whether the two results
// are identical. This is the fleet_kernel entry simbench records and
// benchcheck gates on.
func FleetKernelBench() (*FleetKernelResult, error) {
	rotation := []string{"164.gzip", "181.mcf"}
	imgs := make([]*guest.Image, fleetKernelGuests)
	for i := range imgs {
		p, ok := workload.ByName(rotation[i%len(rotation)])
		if !ok {
			return nil, fmt.Errorf("fleet-kernel bench: workload %s missing", rotation[i%len(rotation)])
		}
		imgs[i] = p.Build()
	}
	run := func(interleaved bool) (*core.FleetResult, sim.Stats, float64, error) {
		cfg := core.DefaultConfig()
		cfg.Params.Width, cfg.Params.Height = 8, 8
		cfg.Interrupt = core.NewInterruptHandle()
		if interleaved {
			cfg.DispatchLog = io.Discard
		}
		start := time.Now()
		res, err := core.RunFleet(imgs, cfg, core.FleetConfig{})
		if err != nil {
			return nil, sim.Stats{}, 0, fmt.Errorf("fleet-kernel bench: interleaved=%v: %w", interleaved, err)
		}
		return res, cfg.Interrupt.KernelStats(), time.Since(start).Seconds(), nil
	}
	res, st, secs, err := run(false)
	if err != nil {
		return nil, err
	}
	interRes, interSt, _, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FleetKernelResult{
		Guests:              fleetKernelGuests,
		Slots:               res.Slots,
		Seconds:             secs,
		Identical:           reflect.DeepEqual(res, interRes) && st.Dispatches == interSt.Dispatches,
		Dispatches:          st.Dispatches,
		Switches:            st.Switches,
		InterleavedSwitches: interSt.Switches,
	}, nil
}
