package service

import (
	rtmetrics "runtime/metrics"
	"time"

	metrics "tilevm/internal/metrics"
	"tilevm/internal/translate"
)

// svcMetrics is the daemon's Prometheus family set. Counters are
// updated under the service mutex (or from atomic ops); the
// callback-backed gauges take the mutex at scrape time.
type svcMetrics struct {
	reg *metrics.Registry

	submitted *metrics.Counter
	rejected  *metrics.CounterVec // reason: queue_full | draining
	shed      *metrics.CounterVec // class of the shed victim
	terminal  *metrics.CounterVec // terminal state name
	batches   *metrics.Counter
	internal  *metrics.Counter
	latency   *metrics.Histogram
	hostInsts *metrics.Counter
	sloMet    *metrics.Counter
	sloTotal  *metrics.Counter
}

func (s *Service) initMetrics() {
	r := metrics.NewRegistry()
	m := &s.m
	m.reg = r
	m.submitted = r.NewCounter("tilevmd_jobs_submitted_total",
		"Jobs accepted into the admission queue.")
	m.rejected = r.NewCounterVec("tilevmd_jobs_rejected_total",
		"Submissions bounced at admission, by reason.", "reason")
	m.shed = r.NewCounterVec("tilevmd_jobs_shed_total",
		"Queued jobs evicted by higher-class arrivals, by victim class.", "class")
	m.terminal = r.NewCounterVec("tilevmd_jobs_terminal_total",
		"Jobs reaching a terminal state, by state.", "state")
	m.batches = r.NewCounter("tilevmd_batches_total",
		"Fleet batches executed.")
	m.internal = r.NewCounter("tilevmd_batch_internal_errors_total",
		"Batches ending in a contained panic (InternalError).")
	m.latency = r.NewHistogram("tilevmd_job_latency_seconds",
		"Submit-to-terminal latency.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
			0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
	m.hostInsts = r.NewCounter("tilevmd_host_insts_total",
		"Host instructions retired by finished jobs (goodput numerator, matching the fleet's GoodputInsts).")
	m.sloMet = r.NewCounter("tilevmd_slo_met_total",
		"Deadline- or timeout-bearing jobs that finished cleanly.")
	m.sloTotal = r.NewCounter("tilevmd_slo_eligible_total",
		"Jobs submitted with a timeout or virtual deadline.")
	r.NewGaugeFunc("tilevmd_queue_depth",
		"Jobs waiting for a batch slot.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queued)
		})
	r.NewGaugeFunc("tilevmd_jobs_running",
		"Jobs in the in-flight batch.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.running))
		})
	r.NewGaugeFunc("tilevmd_slo_attainment",
		"Fraction of SLO-eligible terminal jobs that finished cleanly (1 when none).",
		func() float64 {
			total := m.sloTotal.Value()
			if total == 0 {
				return 1
			}
			return float64(m.sloMet.Value()) / float64(total)
		})
	r.NewGaugeFunc("tilevmd_goodput_insts_per_second",
		"Host instructions retired per wall-clock second since start.",
		func() float64 {
			up := time.Since(s.started).Seconds()
			if up <= 0 {
				return 0
			}
			return float64(m.hostInsts.Value()) / up
		})
	// The translation memo keeps its own counts (they belong to the
	// daemon, not to any job's result); /metrics reads them at scrape.
	memo := func(get func(translate.MemoStats) float64) func() float64 {
		return func() float64 { return get(s.memo.Stats()) }
	}
	r.NewCounterFunc("tilevmd_translation_memo_hits_total",
		"Translations served from the daemon's translation memo.",
		memo(func(st translate.MemoStats) float64 { return float64(st.Hits) }))
	r.NewCounterFunc("tilevmd_translation_memo_misses_total",
		"Blocks translated and published to the memo (first sight of a block of an image).",
		memo(func(st translate.MemoStats) float64 { return float64(st.Misses) }))
	r.NewCounterFunc("tilevmd_translation_memo_bypassed_total",
		"Translations done from live guest memory because the code's page was written after loading.",
		memo(func(st translate.MemoStats) float64 { return float64(st.Bypassed) }))
	r.NewGaugeFunc("tilevmd_translation_memo_entries",
		"Blocks held by the translation memo.",
		memo(func(st translate.MemoStats) float64 { return float64(st.Entries) }))
	r.NewGaugeFunc("tilevmd_translation_memo_bytes",
		"Storage held by the translation memo's entries.",
		memo(func(st translate.MemoStats) float64 { return float64(st.Bytes) }))
	// The host process's live heap, read from the Go runtime at scrape:
	// what the resident VMs' guest memory, translations and tile state
	// occupy between collections.
	r.NewGaugeFunc("tilevmd_go_heap_objects_bytes",
		"Bytes of the daemon's Go heap held by objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes).",
		func() float64 {
			sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			rtmetrics.Read(sample)
			return float64(sample[0].Value.Uint64())
		})
	r.NewGaugeFunc("tilevmd_up",
		"1 while the daemon is serving.", func() float64 { return 1 })
}
