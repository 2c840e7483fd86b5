package bench

import (
	"strings"
	"testing"
)

// TestFleetSweepQuick exercises the fleet table end to end on the
// quick rotation and checks its shape: every grid×count×mode point
// present, utilization within (0, 100], and deterministic output
// (byte-identical on a second run from a fresh suite).
func TestFleetSweepQuick(t *testing.T) {
	run := func() string {
		s := NewSuite()
		s.Quick = true
		out, err := s.FleetSweep()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header (2 lines) + 2 grids × 2 counts × 2 placement modes.
	if len(lines) != 2+8 {
		t.Fatalf("got %d lines, want 10:\n%s", len(lines), out)
	}
	for _, l := range lines[2:] {
		if !strings.Contains(l, "%") {
			t.Errorf("data row missing utilization: %q", l)
		}
		if strings.Contains(l, " 0.0%") {
			t.Errorf("zero utilization in %q", l)
		}
	}
	for _, point := range []string{"4x4", "8x8", "fixed", "planner"} {
		if !strings.Contains(out, point) {
			t.Errorf("sweep output missing %q:\n%s", point, out)
		}
	}
	if again := run(); again != out {
		t.Error("FleetSweep output not deterministic across fresh suites")
	}
}
