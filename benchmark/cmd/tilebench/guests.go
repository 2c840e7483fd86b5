package main

import (
	"fmt"
	"math/rand"
	"time"

	"tilevm/internal/guest"
	"tilevm/internal/pentium"
	"tilevm/internal/workload"
)

// The profile sets. Code profiles have a static code working set far above
// the 32 KB L1 code cache (slowdown >= 26x); data profiles have tiny hot code
// (slowdown <= 9x).
var (
	codeProfiles = []string{"175.vpr", "176.gcc", "186.crafty", "253.perlbmk", "254.gap", "255.vortex", "300.twolf"}
	dataProfiles = []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2"}

	// fleet_mix admits every profile once plus five repeats of light ones,
	// the eight longest first, as a batch operator would submit them: two
	// admission waves on the eight slots of an 8x8 fabric. The seed permutes
	// the order inside each wave; permuting across waves moves the makespan
	// by +-15%, which would drown any effect the workload is there to show.
	fleetWave1 = []string{"175.vpr", "176.gcc", "186.crafty", "253.perlbmk", "254.gap", "255.vortex", "300.twolf", "181.mcf"}
	fleetWave2 = []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2", "164.gzip", "197.parser", "256.bzip2", "175.vpr"}

	// svc_closed draws jobs from these profiles in each admission class.
	svcProfiles = []string{"164.gzip", "181.mcf", "197.parser", "256.bzip2", "175.vpr", "254.gap"}

	// Smoke-sized sets: one pass of each workload in a few seconds.
	smokeCode  = []string{"175.vpr", "254.gap"}
	smokeData  = []string{"164.gzip", "256.bzip2"}
	smokeFleet = []string{"197.parser", "181.mcf", "164.gzip", "256.bzip2"}
)

// guestCase is one generated guest with its independent reference result:
// pentium.Run executes the image on the x86interp reference interpreter.
type guestCase struct {
	name   string
	img    *guest.Image
	ref    *pentium.Result
	buildS float64
	refS   float64
}

// buildGuest generates the named profile's image with seedOff added to the
// profile's canonical seed, and runs the reference.
func buildGuest(name string, seedOff int64) (*guestCase, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload profile %q", name)
	}
	p.Seed += seedOff
	t0 := time.Now()
	img := p.Build()
	t1 := time.Now()
	ref, err := pentium.Run(img, pentium.DefaultParams(), 0)
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", name, err)
	}
	if ref.Insts == 0 || ref.Cycles == 0 {
		return nil, fmt.Errorf("reference run of %s retired nothing", name)
	}
	return &guestCase{name: name, img: img, ref: ref,
		buildS: t1.Sub(t0).Seconds(), refS: time.Since(t1).Seconds()}, nil
}

// buildGuests builds the named guests in order; a profile named twice is
// built once and shared.
func buildGuests(names []string, seedOff int64) ([]*guestCase, error) {
	byName := map[string]*guestCase{}
	out := make([]*guestCase, len(names))
	for i, n := range names {
		g, ok := byName[n]
		if !ok {
			var err error
			if g, err = buildGuest(n, seedOff); err != nil {
				return nil, err
			}
			byName[n] = g
		}
		out[i] = g
	}
	return out, nil
}

// distinct returns the guests of gs without repeats, in first-seen order.
func distinct(gs []*guestCase) []*guestCase {
	seen := map[*guestCase]bool{}
	var out []*guestCase
	for _, g := range gs {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// check compares a run's guest-visible outcome with the reference.
func (g *guestCase) check(exit int32, stdout string) error {
	if exit != g.ref.ExitCode {
		return fmt.Errorf("%s: exit code %d, reference %d", g.name, exit, g.ref.ExitCode)
	}
	if stdout != g.ref.Stdout {
		return fmt.Errorf("%s: stdout %q, reference %q", g.name, stdout, g.ref.Stdout)
	}
	return nil
}

// permuted returns names in an order drawn from r.
func permuted(r *rand.Rand, names []string) []string {
	out := make([]string, len(names))
	for i, j := range r.Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// fleetOrder is the fleet's arrival order for a seed.
func fleetOrder(seed int64, smoke bool) []string {
	r := rand.New(rand.NewSource(seed))
	if smoke {
		return permuted(r, smokeFleet)
	}
	return append(permuted(r, fleetWave1), permuted(r, fleetWave2)...)
}
