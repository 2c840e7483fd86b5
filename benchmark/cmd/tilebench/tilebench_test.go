package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// nameRE is the benchmark contract's rule for a metric or workload name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest checks BENCHMARK.json against the tables the program emits
// from, and both against the benchmark contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `tilebench -manifest`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("manifest keys %v, want %v", keys, want)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Source != "model" && d.Source != "host" {
			t.Errorf("%s: source %q", d.Name, d.Source)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", d.Name)
		}
	}
}

// TestSmoke runs every workload smoke-sized, untraced and traced, and checks
// that each run is correct and emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(options{workload: w.Name, seed: 1, seconds: 0.05, trace: traced, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
					continue
				}
				if v.Unit != d.Unit {
					t.Errorf("%s %s: unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s %s: end-to-end value %v is not positive", w.Name, d.Name, v.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, w.Name+".spans.json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestCalibrationUnits(t *testing.T) {
	if got := cu(3, 0.075); got != 40 {
		t.Errorf("cu(3 s, 75 ms) = %v", got)
	}
	if got := cu(3, 0); got != 0 {
		t.Errorf("cu with no unit = %v", got)
	}
	if got := sectionUnit([]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 10}); got != 1 {
		t.Errorf("section unit = %v, want the tenth percentile 1", got)
	}
	// A pass between a 70 ms and an 80 ms sample is measured in 75 ms units.
	if got := cu(3, (0.070+0.080)/2); got < 39.999 || got > 40.001 {
		t.Errorf("pass of 3 s between samples of 70 and 80 ms = %v cu, want 40", got)
	}
}

// TestPercentile: a percentile is reportable only with ten samples beyond it.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v", v, ok)
	}
	if _, ok := percentile(xs, 95); ok {
		t.Errorf("p95 of 100 samples has 5 beyond it and must not be reportable")
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Errorf("p90 of 99 samples has 9 beyond it and must not be reportable")
	}
	for _, c := range []struct{ p, n int }{{75, 40}, {90, 100}, {95, 200}} {
		if got := minSamples(c.p); got != c.n {
			t.Errorf("minSamples(%d) = %d, want %d", c.p, got, c.n)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// TestSelfTime: dispatch [0,100) holds fetch [10,60), which holds nothing on
// its own lane; exec [100,200) holds two memfills; a second lane is untouched.
func TestSelfTime(t *testing.T) {
	sp := []span{
		{Name: "fetch", Lane: 5, Start: 10, End: 60, Parent: -1},
		{Name: "dispatch", Lane: 5, Start: 0, End: 100, Parent: -1},
		{Name: "memfill", Lane: 5, Start: 110, End: 130, Parent: -1},
		{Name: "memfill", Lane: 5, Start: 150, End: 200, Parent: -1},
		{Name: "exec", Lane: 5, Start: 100, End: 200, Parent: -1},
		{Name: "translate", Lane: 9, Start: 20, End: 180, Parent: -1},
	}
	if n := nest(sp); n != 0 {
		t.Fatalf("%d overlaps", n)
	}
	wantSelf := []uint64{50, 50, 20, 50, 30, 160}
	wantParent := []int{1, -1, 4, 4, -1, -1}
	var selfSum, roots uint64
	for i := range sp {
		if sp[i].Self != wantSelf[i] || sp[i].Parent != wantParent[i] {
			t.Errorf("%s[%d]: self %d parent %d, want %d and %d", sp[i].Name, i, sp[i].Self, sp[i].Parent, wantSelf[i], wantParent[i])
		}
		if sp[i].Lane == 5 {
			selfSum += sp[i].Self
			if sp[i].Parent < 0 {
				roots += sp[i].dur()
			}
		}
	}
	if selfSum != roots || roots != 200 {
		t.Errorf("self times sum to %d, top-level spans to %d, want 200", selfSum, roots)
	}

	// A span that straddles another's end is neither nested nor disjoint.
	bad := []span{{Lane: 1, Start: 0, End: 10, Parent: -1}, {Lane: 1, Start: 5, End: 15, Parent: -1}}
	if n := nest(bad); n != 1 {
		t.Errorf("straddling spans: %d overlaps reported, want 1", n)
	}

	// Causal linking: the bank's span starts inside exactly one memfill.
	sp = append(sp, span{Name: "bank", Lane: 12, Start: 115, End: 125, Parent: -1})
	if n := linkCausal(sp); n != 0 || sp[6].Parent != 2 {
		t.Errorf("bank span: parent %d (%d unparented), want memfill 2", sp[6].Parent, n)
	}
}

// TestReferenceCheck: the check against the reference rejects a corrupted
// exit code or output and accepts the reference's own.
func TestReferenceCheck(t *testing.T) {
	g, err := buildGuest("164.gzip", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check(g.ref.ExitCode, g.ref.Stdout); err != nil {
		t.Errorf("reference outcome rejected: %v", err)
	}
	if err := g.check(g.ref.ExitCode^1, g.ref.Stdout); err == nil {
		t.Errorf("corrupted exit code accepted")
	}
	if err := g.check(g.ref.ExitCode, g.ref.Stdout+"x"); err == nil {
		t.Errorf("corrupted stdout accepted")
	}
	if err := checkJob(g, g.ref.ExitCode^1); err == nil {
		t.Errorf("job with corrupted exit code accepted")
	}
}

// TestSeededInputs: the same seed gives the same inputs, another seed other
// inputs, and the mixes stay what the workloads' definitions say.
func TestSeededInputs(t *testing.T) {
	if a, b := fleetOrder(7, false), fleetOrder(7, false); !reflect.DeepEqual(a, b) {
		t.Errorf("fleet order not repeatable: %v / %v", a, b)
	}
	a, b := fleetOrder(1, false), fleetOrder(2, false)
	if reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 give the same fleet order")
	}
	sa, sb := append([]string(nil), a[:8]...), append([]string(nil), fleetWave1...)
	sort.Strings(sa)
	sort.Strings(sb)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("first admission wave %v is not a permutation of %v", a[:8], fleetWave1)
	}

	s1, s2 := newJobSequence(3, len(svcProfiles)), newJobSequence(3, len(svcProfiles))
	for b := 0; b < 2; b++ {
		profiles, classes := map[int]int{}, map[string]int{}
		for i := 0; i < jobBlock; i++ {
			j := s1.next()
			if j != s2.next() {
				t.Fatalf("job sequence not repeatable at %d", b*jobBlock+i)
			}
			profiles[j.profile]++
			classes[j.class.String()]++
		}
		for p, n := range profiles {
			if len(profiles) != len(svcProfiles) || n != jobBlock/len(svcProfiles) {
				t.Errorf("block %d: profile %d drawn %d times, %d profiles", b, p, n, len(profiles))
			}
		}
		for c, n := range classes {
			if len(classes) != len(svcClasses) || n != jobBlock/len(svcClasses) {
				t.Errorf("block %d: class %s drawn %d times, %d classes", b, c, n, len(classes))
			}
		}
	}

	g0, err := buildGuest("181.mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := buildGuest("181.mcf", 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g0.img.Code, g1.img.Code) && reflect.DeepEqual(g0.img.Segments, g1.img.Segments) {
		t.Errorf("seed offset 1 generates the same 181.mcf image")
	}
}

func TestComparePair(t *testing.T) {
	host := metricDef{Name: "host_cu_per_minst", Better: "lower", Bound: 0.08, Source: "host"}
	if _, ok := comparePair(host, 10, 10.7); !ok {
		t.Errorf("7%% apart rejected at bound 8%%")
	}
	if _, ok := comparePair(host, 10.9, 10); ok {
		t.Errorf("9%% apart accepted at bound 8%%")
	}
	virt := metricDef{Name: "slowdown_geomean", Better: "lower", Bound: 0.05, Source: "model"}
	if _, ok := comparePair(virt, 42.9, 42.9); !ok {
		t.Errorf("identical virtual metric rejected")
	}
	if _, ok := comparePair(virt, 42.9, 42.90001); ok {
		t.Errorf("a virtual metric must repeat exactly")
	}
}
