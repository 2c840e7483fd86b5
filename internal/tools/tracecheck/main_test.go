package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tmpFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// traceDoc builds a minimal Chrome trace_event document with one
// metadata event, nSpans duration spans spread in pid order over nTiles
// pids, and one instant event.
func traceDoc(nTiles, nSpans int) string {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	b.WriteString(`{"name":"process_name","ph":"M","pid":0}`)
	for i := 0; i < nSpans; i++ {
		b.WriteString(`,{"name":"span","ph":"X","pid":` +
			string(rune('0'+i*nTiles/nSpans)) + `,"ts":1,"dur":2}`)
	}
	b.WriteString(`,{"name":"tick","ph":"i","pid":0,"ts":9}`)
	b.WriteString(`]}`)
	return b.String()
}

func TestCheckJSONAcceptsTiledTrace(t *testing.T) {
	p := tmpFile(t, "trace.json", traceDoc(5, 8))
	if err := checkJSON(p); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestCheckJSONRejections(t *testing.T) {
	cases := []struct {
		name, content, want string
	}{
		{"not json", "][", "does not parse"},
		{"empty", `{"traceEvents":[]}`, "empty"},
		{"too few tiles", traceDoc(2, 6), "tile rows"},
		{"no spans", `{"traceEvents":[
			{"name":"a","ph":"i","pid":0},{"name":"b","ph":"i","pid":1},
			{"name":"c","ph":"i","pid":2},{"name":"d","ph":"i","pid":3}]}`, "no duration spans"},
		{"time out of order", strings.Replace(traceDoc(5, 8), `"ts":9`, `"ts":0`, 1), "out of timeline order"},
		{"tiles out of order", `{"traceEvents":[
			{"name":"a","ph":"X","pid":0,"ts":5},{"name":"b","ph":"X","pid":2,"ts":5},
			{"name":"c","ph":"X","pid":1,"ts":5},{"name":"d","ph":"X","pid":3,"ts":6}]}`, "out of timeline order"},
	}
	for _, tc := range cases {
		p := tmpFile(t, "trace.json", tc.content)
		err := checkJSON(p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := checkJSON(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCheckCSV(t *testing.T) {
	good := tmpFile(t, "s.csv", "cycle,dispatches\n100,5\n200,7\n")
	if err := checkCSV(good); err != nil {
		t.Errorf("valid CSV rejected: %v", err)
	}
	headerOnly := tmpFile(t, "s.csv", "cycle,dispatches\n")
	if err := checkCSV(headerOnly); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("header-only CSV: err = %v, want sample-window complaint", err)
	}
	if err := checkCSV(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Error("missing file accepted")
	}
}
