package main

import (
	"bytes"
	"encoding/json"
)

// This file is the measurement contract: the workloads, the metrics and
// the regression bounds. BENCHMARK.json at the repository root is this
// table rendered by manifest() (`-list` prints it; TestManifestMatchesTable
// pins the committed file to it), so a name exists in exactly one place.

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 10

// defaultSeed derives every generated input when -seed is not given, and
// is the only seed expected/digests.json holds digests for.
const defaultSeed = 29

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

// Workload names are the contract later issues cite. README.md gives each
// one a paragraph; the one-liners here are what BENCHMARK.json carries.
var workloads = []workloadDef{
	{"steady-stream", "open-loop Poisson below the knee: event loop, sink and source do the work; policy scan, kernels, sweep and serve do none"},
	{"oversub-eft", "Fig 11 board under EFT past saturation: a ready window of thousands, so policy time dominates and core and stats do little"},
	{"churn-het", "a million platform events beside the scan: FaultPE, SetClass and requeue dominate, so dearer View mutation shows here"},
	{"validation-exec", "kernels execute for real (FFT, Viterbi) with memory instantiation; policy and loop bookkeeping are small"},
	{"daemon-sweep", "closed loop, one client, cold ledger: a grid of small cells through HTTP, ledger fsync and NDJSON, so the serving tax is visible"},
	{"daemon-warm", "the same grid at 100% ledger hits: no emulation at all, only plan, hash, ledger read and emit"},
	{"paper-suite", "what cmd/experiments -exp all makes a person wait for, reduced; the only workload that runs minic, tracer and outliner"},
}

// endToEnd metrics are what a user of the system sees; every workload
// reports every one of them on an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"tasks_per_s", "1/s", "higher", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run, named <package>.<name>.
// A layer a workload does not touch reports 0 there, which is the
// separation the README's interaction table predicts.
var perLayer = []metricDef{
	// Set-up stages, called directly.
	{Name: "platform.build_us", Unit: "us", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_us", Unit: "us", Better: "lower"},
	{Name: "workload.trace_build_ms", Unit: "ms", Better: "lower"},
	{Name: "platevent.gen_ms", Unit: "ms", Better: "lower"},
	// The event loop: emulation spans minus their child spans, and the
	// exact counts the reports carry.
	{Name: "core.run_self_s", Unit: "s", Better: "lower"},
	{Name: "core.self_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "core.sched_invocations", Unit: "count", Better: "lower"},
	{Name: "core.charged_ops", Unit: "count", Better: "lower"},
	{Name: "core.max_ready", Unit: "count", Better: "lower"},
	{Name: "core.requeues", Unit: "count", Better: "lower"},
	{Name: "core.plat_events", Unit: "count", Better: "lower"},
	// The policy wrapper.
	{Name: "sched.policy_busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.invocations", Unit: "count", Better: "lower"},
	{Name: "sched.ns_per_invocation_p50", Unit: "ns", Better: "lower"},
	{Name: "sched.ns_per_invocation_p99", Unit: "ns", Better: "lower"},
	{Name: "sched.assignments", Unit: "count", Better: "higher"},
	{Name: "sched.empty_invocation_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.charged_ops_per_host_s", Unit: "1/s", Better: "higher"},
	// The sink and source wrappers.
	{Name: "stats.sink_busy_s", Unit: "s", Better: "lower"},
	{Name: "stats.records", Unit: "count", Better: "lower"},
	{Name: "stats.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "workload.source_busy_s", Unit: "s", Better: "lower"},
	{Name: "workload.arrivals", Unit: "count", Better: "lower"},
	// The wrapping kernel registry and functional execution.
	{Name: "kernels.busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.calls", Unit: "count", Better: "lower"},
	{Name: "kernels.fft_busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.viterbi_busy_s", Unit: "s", Better: "lower"},
	{Name: "appmodel.newmemory_us", Unit: "us", Better: "lower"},
	{Name: "apps.check_ms", Unit: "ms", Better: "lower"},
	// The sweep pool, on the bare arm of daemon-sweep.
	{Name: "sweep.cells", Unit: "count", Better: "lower"},
	{Name: "sweep.cell_busy_s", Unit: "s", Better: "lower"},
	{Name: "sweep.overhead_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "sweep.empty_cell_us", Unit: "us", Better: "lower"},
	// The serving layer, seen from the client and by direct ledger calls.
	{Name: "serve.cold_sweep_s", Unit: "s", Better: "lower"},
	{Name: "serve.bare_sweep_s", Unit: "s", Better: "lower"},
	{Name: "serve.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.cold_self_s", Unit: "s", Better: "lower"},
	{Name: "serve.self_ms_per_cell", Unit: "ms", Better: "lower"},
	{Name: "serve.first_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.warm_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.warm_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ledger_put_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.ledger_put_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.ledger_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.ledger_open_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ndjson_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "serve.cell_errors", Unit: "count", Better: "lower"},
	// The studies, one span each, and the conversion toolchain's stages.
	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig9_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig10_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig11_s", Unit: "s", Better: "lower"},
	{Name: "experiments.cs4_s", Unit: "s", Better: "lower"},
	{Name: "experiments.scale_s", Unit: "s", Better: "lower"},
	{Name: "experiments.saturation_s", Unit: "s", Better: "lower"},
	{Name: "experiments.churn_s", Unit: "s", Better: "lower"},
	{Name: "minic.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "outliner.convert_s", Unit: "s", Better: "lower"},
	{Name: "outliner.genspec_ms", Unit: "ms", Better: "lower"},
	{Name: "tracer.dyn_instrs_per_s", Unit: "1/s", Better: "higher"},
	// Simulated accuracy against the references the repository holds.
	// Virtual-clock quantities: they move only when the model does.
	{Name: "experiments.table1_mape_pct", Unit: "%", Better: "lower"},
	{Name: "experiments.cs4_full_s", Unit: "s", Better: "lower"},
	{Name: "experiments.cs4_speedup_err_pct", Unit: "%", Better: "lower"},
	// The host, over the timed passes.
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.gc_count", Unit: "count", Better: "lower"},
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "host.mallocs_per_ktask", Unit: "count", Better: "lower"},
	// The instrument itself: traced against untraced passes of one run.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.traced_passes", Unit: "count", Better: "higher"},
	{Name: "bench.timer_ns", Unit: "ns", Better: "lower"},
}

// manifest renders the table as BENCHMARK.json.
func manifest() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain data; cannot fail
	}
	return buf.Bytes()
}
