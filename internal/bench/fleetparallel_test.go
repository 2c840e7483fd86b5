package bench

import "testing"

// TestFleetParallelBench runs the parallel_sim benchmark once at two
// workers and checks the contract simbench and benchcheck rely on:
// the sharded run exists, the identity gate holds, the serial kernel's
// counts are there and the recorded shape is sane. Wall-clock fields
// are measured, not asserted — this is a correctness test, not a perf
// test.
func TestFleetParallelBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full 12-guest fleets")
	}
	fp, err := FleetParallelBench(2)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Identical {
		t.Fatal("sharded or interleaved fleet result diverged from serial — bit-for-bit contract broken")
	}
	if fp.Guests != fleetParallelGuests || fp.Slots != 8 || fp.Workers != 2 {
		t.Fatalf("unexpected shape: %+v", fp)
	}
	if fp.SerialSeconds <= 0 || fp.ShardedSeconds <= 0 {
		t.Fatalf("unmeasured wall clocks: %+v", fp)
	}
	// The count benchcheck gates: the serial side runs a slot at a time.
	if fp.SerialDispatches == 0 || 4*fp.SerialSwitches > 3*fp.InterleavedSwitches {
		t.Fatalf("serial kernel counts: %+v: want at most 0.75 of the interleaved loop's switches", fp)
	}
}

// TestFleetParallelBenchRejectsSerial pins the argument contract.
func TestFleetParallelBenchRejectsSerial(t *testing.T) {
	if _, err := FleetParallelBench(1); err == nil {
		t.Fatal("want error for workers < 2")
	}
}
