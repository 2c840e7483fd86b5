package bench

import (
	"strings"
	"testing"
)

// TestFleetFaultSweepQuick exercises the fleet fault-tolerance table
// end to end on the quick matrix and checks its shape: every
// faults×policy point present, the faulty points actually quarantine a
// slot, and the output byte-identical on a second run from a fresh
// suite.
func TestFleetFaultSweepQuick(t *testing.T) {
	run := func() string {
		s := NewSuite()
		s.Quick = true
		out, err := s.FleetFaultSweep()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header (2 lines) + 2 fault counts × 2 policies.
	if len(lines) != 2+4 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), out)
	}
	for _, policy := range []string{"abort", "retry"} {
		if !strings.Contains(out, policy) {
			t.Errorf("sweep output missing policy %q:\n%s", policy, out)
		}
	}
	for _, l := range lines[2:] {
		fields := strings.Fields(l)
		faults, quar := fields[0], fields[6]
		if faults == "0" && quar != "0" {
			t.Errorf("fault-free row quarantined a slot: %q", l)
		}
		if faults != "0" && quar == "0" {
			t.Errorf("faulty row quarantined nothing: %q", l)
		}
	}
	if again := run(); again != out {
		t.Error("FleetFaultSweep output not deterministic across fresh suites")
	}
}
