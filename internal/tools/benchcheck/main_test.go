package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEvaluate(t *testing.T) {
	lines, violations := evaluate([]metric{
		{"within", 100, 120, 1.5},
		{"improved", 100, 40, 1.5},
		{"regressed", 100, 200, 1.5},
		{"no-baseline", 0, 999, 1.5},
	})
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "regressed") {
		t.Errorf("violations = %v, want exactly the regressed metric", violations)
	}
	if !strings.Contains(lines[2], "REGRESSED") {
		t.Errorf("regressed line not flagged: %q", lines[2])
	}
	for _, i := range []int{0, 1, 3} {
		if strings.Contains(lines[i], "REGRESSED") {
			t.Errorf("line %d wrongly flagged: %q", i, lines[i])
		}
	}
}

func TestExactCount(t *testing.T) {
	for _, c := range []struct {
		baseline, measured int64
		fails              bool
	}{{0, 0, false}, {0, 1, true}, {3, 2, false}, {3, 4, true}} {
		line, violation := exactCount("count", c.baseline, c.measured)
		if (violation != "") != c.fails || strings.Contains(line, "REGRESSED") != c.fails {
			t.Errorf("baseline %d, measured %d: line %q, violation %q, want failing %v",
				c.baseline, c.measured, line, violation, c.fails)
		}
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{
		"micro": {"machine_run_gzip": {"ns_per_op": 17000000, "allocs_per_op": 16000}},
		"quick_suite": {"serial": {"seconds": 9.1}}
	}`), 0o644)
	b, err := loadBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	gz := b.Micro["machine_run_gzip"]
	if gz.NsPerOp != 17_000_000 || gz.AllocsPerOp != 16_000 || b.QuickSuite.Serial.Seconds != 9.1 {
		t.Errorf("parsed baseline wrong: %+v", b)
	}

	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"micro": {}}`), 0o644)
	if _, err := loadBaseline(empty); err == nil || !strings.Contains(err.Error(), "machine_run_gzip") {
		t.Errorf("baseline without the gzip micro accepted: %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`]`), 0o644)
	if _, err := loadBaseline(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := loadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
