package main

import (
	"strings"

	"repro/internal/parboil"
)

// metricDef is one line of BENCHMARK.json; bound is 0 for per-layer
// metrics, which are printed and never gated.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a tenant of the shared runtime sees. Every
// workload reports every one; README.md says what each means on each
// workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fg_ops_per_s", "1/s", "higher", 0.25},
	{"fg_p50_us", "us", "lower", 0.25},
	{"fg_tail_us", "us", "lower", 0.25},
	{"bg_ops_per_s", "1/s", "higher", 0.25},
	{"bg_p50_us", "us", "lower", 0.25},
	{"sharing_tax", "ratio", "lower", 0.25},
	{"unfairness", "ratio", "lower", 0.25},
	{"antt", "ratio", "lower", 0.25},
	{"stp", "ratio", "higher", 0.25},
}

// perLayerDefs are the traced run's metrics, in ladder order.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "interp.launch_us", Unit: "us", Better: "lower"},
		{Name: "interp.divergence_fallbacks_per_launch", Unit: "count", Better: "lower"},
		{Name: "interp.warp_occupancy", Unit: "%", Better: "higher"},
		{Name: "interp.program_cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "interp.compile_o1_us", Unit: "us", Better: "lower"},
		{Name: "interp.compile_tier0_us", Unit: "us", Better: "lower"},
		{Name: "clc.compile_us", Unit: "us", Better: "lower"},
		{Name: "accelpass.transform_us", Unit: "us", Better: "lower"},
		{Name: "passes.o1_us", Unit: "us", Better: "lower"},
		{Name: "opencl.chain_us", Unit: "us", Better: "lower"},
		{Name: "opencl.self_us", Unit: "us", Better: "lower"},
		{Name: "opencl.sliced_launch_us", Unit: "us", Better: "lower"},
		{Name: "accelos.wrapper_us", Unit: "us", Better: "lower"},
		{Name: "accelos.chain_us", Unit: "us", Better: "lower"},
		{Name: "accelos.dispatch_us", Unit: "us", Better: "lower"},
		{Name: "accelos.enqueue_us", Unit: "us", Better: "lower"},
		{Name: "accelos.wait_us", Unit: "us", Better: "lower"},
		{Name: "accelos.queue_delay_us", Unit: "us", Better: "lower"},
		{Name: "accelos.launch_delay_us", Unit: "us", Better: "lower"},
		{Name: "accelos.exec_us", Unit: "us", Better: "lower"},
		{Name: "accelos.replans_per_launch", Unit: "count", Better: "lower"},
		{Name: "accelos.wait_deferred_share", Unit: "ratio", Better: "lower"},
		{Name: "accelos.slices_per_launch", Unit: "count", Better: "lower"},
		{Name: "accelos.slice_us", Unit: "us", Better: "lower"},
		{Name: "accelos.enqueue_latency_us", Unit: "us", Better: "lower"},
		{Name: "accelos.plan_shares_us", Unit: "us", Better: "lower"},
		{Name: "accelos.create_program_us", Unit: "us", Better: "lower"},
		{Name: "service.chain_us", Unit: "us", Better: "lower"},
		{Name: "service.tax_us", Unit: "us", Better: "lower"},
		{Name: "service.enqueue_us", Unit: "us", Better: "lower"},
		{Name: "service.wait_us", Unit: "us", Better: "lower"},
		{Name: "service.request_us", Unit: "us", Better: "lower"},
		{Name: "service.dial_us", Unit: "us", Better: "lower"},
		{Name: "service.close_us", Unit: "us", Better: "lower"},
		{Name: "service.create_buffer_us", Unit: "us", Better: "lower"},
		{Name: "service.create_program_us", Unit: "us", Better: "lower"},
		{Name: "service.shm_bytes_per_session", Unit: "B", Better: "lower"},
		{Name: "wire.frame_roundtrip_us", Unit: "us", Better: "lower"},
		{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.shm_create_us", Unit: "us", Better: "lower"},
		{Name: "cluster.submit_complete_us", Unit: "us", Better: "lower"},
		{Name: "telemetry.span_ns", Unit: "ns", Better: "lower"},
		{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "bench.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "bench.heap_inuse_mb", Unit: "MB", Better: "lower"},
		{Name: "bench.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
		{Name: "bench.goroutines", Unit: "count", Better: "lower"},
		{Name: "bench.machine_speed", Unit: "ratio", Better: "higher"},
		{Name: "bench.fg_p99_us", Unit: "us", Better: "lower"},
	}
	for _, k := range parboil.Kernels() {
		defs = append(defs, metricDef{Name: taxMetric(k.FullName()), Unit: "ratio", Better: "lower"})
	}
	return defs
}

// taxMetric names the per-kernel sharing tax of a Parboil
// "benchmark/kernel".
func taxMetric(fullName string) string {
	return "accelos.tax." + strings.ReplaceAll(fullName, "/", "-")
}
