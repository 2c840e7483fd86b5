package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the length of one run's timed section, as BENCHMARK.json
// states it. The driver makes 4 + 22 x 4 runs inside 3420 s; a run is the
// timed section plus about 6 s of set-up and warm-up.
const runSeconds = 20

// metricDef is one row of the benchmark's metric tables. Name, Unit, Better
// and (end to end only) Bound go into BENCHMARK.json; Source and (per layer)
// Moves are the README's tables, kept here so that the two cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Source string // "model" (virtual, exact for a seed) or "host" (noisy, informational)
	Moves  string // the end-to-end metric and workload the layer metric should move
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"spec_code", "Seven SpecInt profiles with slowdown >= 26x, each alone: code working set far above the 32 KB L1 code cache, so virtual time is code-supply stall and about half the host time is the translator."},
	{"spec_data", "Four profiles with slowdown <= 9x: tiny hot code, translator idle after warm-up; virtual and host time are exec plus the MMU/bank message pipeline. The no-change workload for translator work."},
	{"fleet_mix", "16 heterogeneous guests in two admission waves on an 8x8 fabric: the same core and sim layers with 64 tile kernels in one event heap, queued admission and vmSwitch."},
	{"svc_closed", "The daemon operator's view: one closed-loop generator keeps 16 jobs outstanding (2x slots) through admission queue, batcher, RunFleet and settlement; reported as a latency distribution."},
}

// End-to-end metrics. Every workload reports every one of them; the
// per-workload reading of "operation" and "virtual time" is in the README.
//
// A bound has to cover the metric's spread over ten seeds on its noisiest
// workload about three times (README, "Measured spread"). For the virtual
// metrics that spread is what another seed's programs do to the number; for
// the host metrics it is this host's noise, which calibration roughly halves.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "host"},
	{Name: "slowdown_geomean", Unit: "x", Better: "lower", Bound: 0.05, Source: "model"},
	{Name: "vcycles_per_ginst", Unit: "cycles/inst", Better: "lower", Bound: 0.10, Source: "model"},
	{Name: "host_cu_per_minst", Unit: "cu/Minst", Better: "lower", Bound: 0.20, Source: "host"},
	{Name: "latency_p50_cu", Unit: "cu", Better: "lower", Bound: 0.25, Source: "host"},
	{Name: "latency_tail_cu", Unit: "cu", Better: "lower", Bound: 0.25, Source: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Source: "host"},
}

const (
	movCode  = "vcycles_per_ginst, slowdown_geomean on spec_code"
	movData  = "vcycles_per_ginst, slowdown_geomean on spec_data"
	movBoth  = "vcycles_per_ginst on spec_code and spec_data"
	movFleet = "vcycles_per_ginst, slowdown_geomean on fleet_mix"
	movSvc   = "latency_p50_cu, latency_tail_cu, host_cu_per_minst on svc_closed"
	movHost  = "host_cu_per_minst, peak_rss_mb on every workload"
)

var perLayer = []metricDef{
	{Name: "translate.blocks", Unit: "count", Better: "lower", Source: "model", Moves: movCode},
	{Name: "translate.demand_misses", Unit: "count", Better: "lower", Source: "model", Moves: movCode},
	{Name: "translate.spec_wasted_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movCode},
	{Name: "translate.vc_busy", Unit: "cycles", Better: "lower", Source: "model", Moves: movCode},
	{Name: "translate.us_per_block", Unit: "us", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_code (at most translate.host_share of it) and svc_closed"},
	{Name: "x86.decode_us_per_block", Unit: "us", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_code"},
	{Name: "translate.host_insts_per_block", Unit: "inst", Better: "lower", Source: "model", Moves: movCode},
	{Name: "translate.host_share", Unit: "ratio", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_code"},
	{Name: "codecache.l1_hit_rate", Unit: "ratio", Better: "higher", Source: "model", Moves: movCode},
	{Name: "codecache.l15_hit_rate", Unit: "ratio", Better: "higher", Source: "model", Moves: movCode},
	{Name: "codecache.l2_miss_rate", Unit: "ratio", Better: "lower", Source: "model", Moves: movCode},
	{Name: "codecache.l1_flushes", Unit: "count", Better: "lower", Source: "model", Moves: movCode},
	{Name: "codecache.chains", Unit: "count", Better: "higher", Source: "model", Moves: movCode},
	{Name: "core.vcycles", Unit: "cycles", Better: "lower", Source: "model", Moves: "the numerator of vcycles_per_ginst on every workload; repeats exactly for a seed"},
	{Name: "core.vc_fetch_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movCode},
	{Name: "core.vc_exec_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movData},
	{Name: "core.vc_memfill_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movData},
	{Name: "core.vc_syscall_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movBoth},
	{Name: "core.vc_dispatch_self_share", Unit: "ratio", Better: "lower", Source: "model", Moves: movBoth},
	{Name: "core.vc_uncovered_share", Unit: "ratio", Better: "lower", Source: "model", Moves: "none: guest cycles that no exec-tile span covers"},
	{Name: "core.dispatches", Unit: "count", Better: "lower", Source: "model", Moves: movBoth},
	{Name: "core.host_insts_per_guest_inst", Unit: "ratio", Better: "lower", Source: "model", Moves: movBoth},
	{Name: "core.tile_util", Unit: "ratio", Better: "higher", Source: "model", Moves: movBoth + " and fleet_mix"},
	{Name: "core.machine_share", Unit: "ratio", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_data, fleet_mix"},
	{Name: "core.fleet_makespan_vcycles", Unit: "cycles", Better: "lower", Source: "model", Moves: movFleet},
	{Name: "core.fleet_turnaround_vcycles", Unit: "cycles", Better: "lower", Source: "model", Moves: movFleet},
	{Name: "core.fleet_queue_wait_vcycles", Unit: "cycles", Better: "lower", Source: "model", Moves: movFleet},
	{Name: "mmu.tlb_misses", Unit: "count", Better: "lower", Source: "model", Moves: movData},
	{Name: "mmu.vc_busy", Unit: "cycles", Better: "lower", Source: "model", Moves: movData},
	{Name: "dcache.dl1_miss_rate", Unit: "ratio", Better: "lower", Source: "model", Moves: movData},
	{Name: "dcache.l2d_miss_rate", Unit: "ratio", Better: "lower", Source: "model", Moves: movData},
	{Name: "dcache.vc_bank_busy", Unit: "cycles", Better: "lower", Source: "model", Moves: movData},
	{Name: "rawexec.ns_per_host_inst", Unit: "ns", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_data"},
	{Name: "rawexec.host_share", Unit: "ratio", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_data"},
	{Name: "sim.event_dispatch_ns", Unit: "ns", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_data, fleet_mix"},
	{Name: "sim.advance_recv_ns", Unit: "ns", Better: "lower", Source: "host", Moves: "host_cu_per_minst on spec_data, fleet_mix"},
	{Name: "sim.host_ns_per_vcycle", Unit: "ns", Better: "lower", Source: "host", Moves: "host_cu_per_minst on every workload"},
	{Name: "sim.shard_speedup", Unit: "x", Better: "higher", Source: "host", Moves: "none today: the serial loop is every binary's default"},
	{Name: "sim.shard_attempts", Unit: "count", Better: "higher", Source: "host", Moves: "none"},
	{Name: "sim.shard_failed", Unit: "count", Better: "lower", Source: "host", Moves: "none: the sharded loop's deadlock rate"},
	{Name: "sim.shard_identical", Unit: "count", Better: "higher", Source: "host", Moves: "none"},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower", Source: "host", Moves: movSvc},
	{Name: "service.run_p50_ms", Unit: "ms", Better: "lower", Source: "host", Moves: movSvc},
	{Name: "service.batches", Unit: "count", Better: "lower", Source: "host", Moves: movSvc},
	{Name: "service.mean_batch_size", Unit: "jobs", Better: "higher", Source: "host", Moves: movSvc},
	{Name: "service.shed", Unit: "count", Better: "lower", Source: "host", Moves: movSvc},
	{Name: "service.rejected", Unit: "count", Better: "lower", Source: "host", Moves: movSvc},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Source: "host", Moves: "none: guards the cost of observability work"},
	{Name: "trace.events", Unit: "count", Better: "lower", Source: "model", Moves: "none"},
	{Name: "trace.unparented_spans", Unit: "count", Better: "lower", Source: "model", Moves: "none: service-tile spans with no unique causing span"},
	{Name: "latency.samples", Unit: "count", Better: "higher", Source: "host", Moves: "none: the sample count behind latency_p50_cu and latency_tail_cu"},
	{Name: "latency.tail_pct", Unit: "%", Better: "higher", Source: "host", Moves: "none: the percentile latency_tail_cu reports on this workload"},
	{Name: "host.pass_wall_s", Unit: "s", Better: "lower", Source: "host", Moves: movHost},
	{Name: "host.guest_kips", Unit: "kinst/s", Better: "higher", Source: "host", Moves: movHost},
	{Name: "host.calib_s", Unit: "s", Better: "lower", Source: "host", Moves: "none: the divisor of every cu figure"},
	{Name: "host.calib_samples", Unit: "count", Better: "higher", Source: "host", Moves: "none"},
	{Name: "host.cpu_s", Unit: "s", Better: "lower", Source: "host", Moves: movHost},
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower", Source: "host", Moves: movHost},
	{Name: "host.mallocs", Unit: "count", Better: "lower", Source: "host", Moves: movHost},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Source: "host", Moves: movHost},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower", Source: "host", Moves: "setup_s on every workload"},
	{Name: "pentium.ref_kips", Unit: "kinst/s", Better: "higher", Source: "host", Moves: "setup_s on every workload"},
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the whys say ">=" and "<="
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
