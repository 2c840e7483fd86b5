package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Prometheus-text-format registry, hand-rolled so the service daemon
// can expose an industry-standard /metrics endpoint without pulling in
// a client library. Only the small slice of the exposition format the
// daemon needs is implemented: counters, gauges (direct and
// callback-backed), single-label counter vectors, and cumulative
// histograms. WriteText output is deterministic — metrics sorted by
// name, vector children by label value — so scrapes diff cleanly and
// tests can assert on exact text.

// A Registry holds named metrics and renders them in Prometheus text
// exposition format (version 0.0.4). All methods are safe for
// concurrent use; registration of a duplicate name panics, since that
// is a programming error, not an operating condition.
type Registry struct {
	mu   sync.Mutex
	byID map[string]promMetric
}

// promMetric is one registered family: it renders its # HELP/# TYPE
// header and sample lines.
type promMetric interface {
	writeProm(w io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]promMetric{}}
}

func (r *Registry) register(name string, m promMetric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.byID[name] = m
}

// WriteText renders every registered metric in Prometheus text
// exposition format, sorted by metric name.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.byID))
	for n := range r.byID {
		names = append(names, n)
	}
	ms := make([]promMetric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.byID[n])
	}
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the registry to a string (convenience for tests and
// logs).
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b) // strings.Builder never errors
	return b.String()
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// A Counter is a monotonically increasing uint64.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeProm(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// A Gauge is a float64 that can go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeProm(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
	return err
}

// A GaugeFunc samples its value from a callback at scrape time — for
// quantities the owner already tracks (queue depth, jobs in flight).
// The callback must be safe to call from the scraping goroutine.
type GaugeFunc struct {
	name, help, typ string
	fn              func() float64
}

// NewGaugeFunc registers a callback-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, &GaugeFunc{name: name, help: help, typ: "gauge", fn: fn})
}

// NewCounterFunc registers a callback-backed counter: a total the owner
// already keeps and never decreases.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, &GaugeFunc{name: name, help: help, typ: "counter", fn: fn})
}

func (g *GaugeFunc) writeProm(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, g.typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
	return err
}

// A CounterVec is a family of counters keyed by one label.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*atomic.Uint64
}

// NewCounterVec registers and returns a single-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label,
		children: map[string]*atomic.Uint64{}}
	r.register(name, v)
	return v
}

// child returns (creating if needed) the counter for a label value.
func (v *CounterVec) child(value string) *atomic.Uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &atomic.Uint64{}
		v.children[value] = c
	}
	return c
}

// Inc adds one to the counter for the given label value.
func (v *CounterVec) Inc(value string) { v.child(value).Add(1) }

// Add adds n to the counter for the given label value.
func (v *CounterVec) Add(value string, n uint64) { v.child(value).Add(n) }

// Value returns the count for a label value (0 if never touched).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c.Load()
	}
	return 0
}

// Total sums every child.
func (v *CounterVec) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t uint64
	for _, c := range v.children {
		t += c.Load()
	}
	return t
}

func (v *CounterVec) writeProm(w io.Writer) error {
	if err := writeHeader(w, v.name, v.help, "counter"); err != nil {
		return err
	}
	v.mu.Lock()
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	type sample struct {
		lv string
		n  uint64
	}
	samples := make([]sample, 0, len(vals))
	for _, lv := range vals {
		samples = append(samples, sample{lv, v.children[lv].Load()})
	}
	v.mu.Unlock()
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
			v.name, v.label, escapeLabel(s.lv), s.n); err != nil {
			return err
		}
	}
	return nil
}

// A Histogram is a cumulative-bucket histogram with a sum and count,
// rendered with the conventional _bucket/_sum/_count sample names.
// Observations and rendering may race benignly across buckets — each
// individual counter is atomic, and scrapes are point-in-time
// snapshots, the same contract real Prometheus clients offer.
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	buckets    []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64 // math.Float64bits, CAS-updated
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
	}
	h := &Histogram{name: name, help: help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds))}
	r.register(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) writeProm(w io.Writer) error {
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			h.name, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	count := h.count.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, count); err != nil {
		return err
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, count)
	return err
}
