// Command tracecheck validates a captured trace for CI: the Chrome
// trace_event JSON must parse, be non-empty, show the tiled layout
// (at least 4 distinct tile rows with at least one duration span), and
// list its events in timeline order (by ts, then pid); an
// optional second argument names the sampler CSV, which must have a
// header plus at least one data row. It prints one summary line and
// exits non-zero on any violation.
//
//	tracecheck trace.json [samples.csv]
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json [samples.csv]")
		os.Exit(2)
	}
	if err := checkJSON(os.Args[1]); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	if len(os.Args) == 3 {
		if err := checkCSV(os.Args[2]); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", os.Args[2], err)
			os.Exit(1)
		}
	}
}

func checkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TS   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("does not parse as trace_event JSON: %v", err)
	}
	pids := map[int]bool{}
	spans := 0
	var lastTS uint64
	lastPID := -1
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < lastTS || ev.TS == lastTS && ev.PID < lastPID {
			return fmt.Errorf("event %d (ts %d, pid %d) is out of timeline order", i, ev.TS, ev.PID)
		}
		lastTS, lastPID = ev.TS, ev.PID
		pids[ev.PID] = true
		if ev.Ph == "X" {
			spans++
		}
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace is empty")
	}
	if len(pids) < 4 {
		return fmt.Errorf("only %d tile rows, want >= 4 (tiled layout not visible)", len(pids))
	}
	if spans == 0 {
		return fmt.Errorf("no duration spans")
	}
	fmt.Printf("tracecheck: %s ok (%d events, %d spans, %d tile rows)\n",
		path, len(doc.TraceEvents), spans, len(pids))
	return nil
}

func checkCSV(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	for sc.Scan() {
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rows < 2 {
		return fmt.Errorf("%d lines, want a header plus at least one sample window", rows)
	}
	fmt.Printf("tracecheck: %s ok (%d sample windows)\n", path, rows-1)
	return nil
}
