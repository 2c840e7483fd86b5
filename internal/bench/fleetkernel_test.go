package bench

import "testing"

// TestFleetKernelBench runs the fleet_kernel benchmark once and checks
// the contract simbench and benchcheck rely on: the identity gate
// holds, the kernel's counts are there and the recorded shape is sane.
// Wall-clock fields are measured, not asserted — this is a correctness
// test, not a perf test.
func TestFleetKernelBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full 12-guest fleets")
	}
	fk, err := FleetKernelBench()
	if err != nil {
		t.Fatal(err)
	}
	if !fk.Identical {
		t.Fatal("interleaved fleet result diverged from slot-at-a-time — bit-for-bit contract broken")
	}
	if fk.Guests != fleetKernelGuests || fk.Slots != 8 {
		t.Fatalf("unexpected shape: %+v", fk)
	}
	if fk.Seconds <= 0 {
		t.Fatalf("unmeasured wall clock: %+v", fk)
	}
	// The count benchcheck gates: the kernel runs a slot at a time.
	if fk.Dispatches == 0 || 4*fk.Switches > 3*fk.InterleavedSwitches {
		t.Fatalf("kernel counts: %+v: want at most 0.75 of the interleaved loop's switches", fk)
	}
}
