package bench

import (
	"strings"
	"testing"
)

// renderQuick regenerates a deterministic slice of the quick figure
// suite with the given worker count and returns the concatenated
// rendered text. short restricts to the cheapest figures so the -race
// variant of this test stays affordable.
func renderQuick(t *testing.T, workers int, short bool) string {
	t.Helper()
	s := NewSuite()
	s.Quick = true
	s.Workers = workers
	var b strings.Builder
	var progress []string
	s.Progress = func(line string) { progress = append(progress, line) }

	figs := []func() (*Figure, error){s.Figure4, s.FaultSweep}
	if !short {
		figs = []func() (*Figure, error){
			s.Figure4, s.Figure5, s.Figure6, s.Figure7,
			s.Figure8, s.Figure9, s.Figure10, s.FaultSweep,
		}
	}
	for _, f := range figs {
		fig, err := f()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b.WriteString(fig.String())
	}
	head, err := s.Headline()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	b.WriteString(head)
	// The workers shared the suite's translation memo: the sweep's
	// configurations translate the same blocks of the same images.
	if st := s.memo.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("workers=%d: suite memo unused: %+v", workers, st)
	}
	// Progress lines are part of the determinism contract: the parallel
	// merge must announce fresh runs in the same order as serial
	// execution.
	b.WriteString(strings.Join(progress, "\n"))
	return b.String()
}

// TestParallelDeterminism pins the tentpole guarantee: the figure suite
// rendered with an 8-worker pool is byte-identical to the serial path,
// including the order of progress lines. Under -race this also checks
// that concurrent core.Run/pentium.Run executions share no mutable
// state — and that what they do share, the suite's translation memo and
// every block it hands to two jobs at once, is never written.
func TestParallelDeterminism(t *testing.T) {
	serial := renderQuick(t, 1, testing.Short())
	parallel := renderQuick(t, 8, testing.Short())
	if serial != parallel {
		t.Fatalf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel (8 workers) ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 4") {
		t.Fatalf("suspicious rendered output:\n%s", serial)
	}
}
