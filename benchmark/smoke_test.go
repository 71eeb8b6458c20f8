package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// positive lists, per workload, the per-layer metrics that must be above
// zero on a traced run: the layers the workload exists to load. Every
// layer a workload bypasses must read exactly 0 (zeroPrefixes).
var positive = map[string][]string{
	"steady-stream": {"core.run_self_s", "core.self_ns_per_task", "core.sched_invocations", "core.charged_ops",
		"sched.policy_busy_s", "sched.ns_per_invocation_p50", "sched.assignments", "sched.charged_ops_per_host_s",
		"stats.sink_busy_s", "stats.records", "stats.ns_per_record", "workload.source_busy_s", "workload.arrivals",
		"platform.build_us", "core.compile_ms", "core.new_us", "host.alloc_mb"},
	"oversub-eft": {"core.run_self_s", "core.max_ready", "sched.policy_busy_s", "sched.invocations",
		"stats.records", "workload.trace_build_ms"},
	"churn-het": {"core.requeues", "core.plat_events", "platevent.gen_ms", "sched.policy_busy_s",
		"workload.arrivals", "stats.sink_busy_s"},
	"validation-exec": {"kernels.busy_s", "kernels.calls", "kernels.fft_busy_s", "kernels.viterbi_busy_s",
		"appmodel.newmemory_us", "apps.check_ms", "sched.policy_busy_s", "host.mallocs_per_ktask"},
	"daemon-sweep": {"serve.cold_sweep_s", "serve.bare_sweep_s", "serve.tax_ratio", "serve.first_cell_ms",
		"serve.warm_sweep_ms", "serve.warm_p95_ms", "serve.ledger_put_us_p50", "serve.ledger_put_us_p99",
		"serve.ledger_get_ns", "serve.ledger_open_ms", "serve.drain_ms", "serve.ndjson_bytes",
		"sweep.cells", "sweep.cell_busy_s", "sweep.overhead_us_per_cell", "sweep.empty_cell_us"},
	"daemon-warm": {"serve.warm_sweep_ms", "serve.warm_p95_ms"},
	"paper-suite": {"experiments.table1_s", "experiments.table2_s", "experiments.fig9_s", "experiments.fig10_s",
		"experiments.fig11_s", "experiments.cs4_s", "experiments.scale_s", "experiments.saturation_s",
		"experiments.churn_s", "minic.compile_ms", "outliner.convert_s", "outliner.genspec_ms",
		"tracer.dyn_instrs_per_s", "experiments.table1_mape_pct", "experiments.cs4_full_s"},
}

// zeroPrefixes are the layers each workload must not touch.
var zeroPrefixes = map[string][]string{
	"steady-stream":   {"kernels.", "serve.", "sweep.", "experiments.", "core.requeues", "core.plat_events"},
	"oversub-eft":     {"kernels.", "serve.", "sweep.", "experiments.", "workload.source", "workload.arrivals"},
	"churn-het":       {"kernels.", "serve.", "sweep.", "experiments."},
	"validation-exec": {"serve.", "sweep.", "experiments.", "stats.", "workload.source"},
	"daemon-sweep":    {"kernels.", "experiments.", "sched.", "stats.", "core.run"},
	"daemon-warm":     {"kernels.", "experiments.", "sched.", "stats.", "sweep.", "serve.cold", "serve.ledger"},
	"paper-suite":     {"serve.", "sched.", "stats.", "kernels."},
}

// TestSmoke runs every workload at the smoke sizes, untraced and traced,
// and holds the output to the contract: every declared metric emitted and
// finite, the loaded layers above zero and the bypassed ones exactly zero,
// digests stable across passes and between the two runs, no operation
// failed, and nothing left behind but the result and trace files.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			var digests []string
			for _, traced := range []bool{false, true} {
				res, err := run(runOpts{workload: w.Name, seed: 5, seconds: 0, traced: traced, sz: smokeSizes, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Failures {
					t.Errorf("traced=%v: failed operation: %s", traced, f)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d", traced, res.Attempted, res.Failed)
				}
				if want := smokeSizes.minPasses; res.Passes < want {
					t.Errorf("traced=%v: %d passes behind the medians, want at least %d", traced, res.Passes, want)
				}
				digests = append(digests, res.Digest)

				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, the table declares %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is %v", d.Name, v.Value)
					case v.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, the table says %q", d.Name, v.Unit, d.Unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, v.Value)
					}
				}
				if !traced {
					continue
				}
				for _, name := range positive[w.Name] {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s is %v on %s, which exists to load that layer", name, v, w.Name)
					}
				}
				for name, v := range res.Metrics {
					for _, prefix := range zeroPrefixes[w.Name] {
						if strings.HasPrefix(name, prefix) && v.Value != 0 {
							t.Errorf("%s is %v on %s, which bypasses that layer", name, v.Value, w.Name)
						}
					}
				}
				if _, err := os.Stat(filepath.Join(dir, "trace."+w.Name+".json")); err != nil {
					t.Errorf("no trace written: %v", err)
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("sim_digest %q untraced, %q traced: the wrappers are visible to the simulation", digests[0], digests[1])
			}
			// State directories and scratch journals are gone.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.IsDir() {
					t.Errorf("left behind directory %s", e.Name())
				}
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTable pins BENCHMARK.json to table.go and the table
// to the contract's limits.
func TestManifestMatchesTable(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Errorf("BENCHMARK.json differs from the table; regenerate it with `go run -C benchmark . -list > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newScenario(w.Name, 1, smokeSizes, ""); err != nil {
			t.Errorf("workload %s is in the table but not implemented: %v", w.Name, err)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// TestExpectedDigests checks that expected/digests.json names exactly the
// table's workloads.
func TestExpectedDigests(t *testing.T) {
	want, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(want[w.Name]) != 64 {
			t.Errorf("expected/digests.json has no SHA-256 for %s", w.Name)
		}
		delete(want, w.Name)
	}
	for name := range want {
		t.Errorf("expected/digests.json names %q, which is not a workload", name)
	}
}

// TestCompare checks -compare's verdicts on two synthetic result files.
func TestCompare(t *testing.T) {
	mk := func(wall float64, failed int, digest string) string {
		all := suiteResult{Seed: 1, Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			res := &runResult{Workload: w.Name, Attempted: 10, Failed: failed, Digest: digest, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{wall, d.Unit}
			}
			all.Workloads[w.Name] = workloadResult{EndToEnd: res}
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1.00, 0, "d")
	for _, c := range []struct {
		name string
		b    string
		same bool
	}{
		{"within the bounds", mk(1.04, 0, "d"), true},
		{"lower-is-better metrics 30% up", mk(1.30, 0, "d"), false},
		{"higher-is-better metric 30% down", mk(0.70, 0, "d"), false},
		{"a failed operation", mk(1.00, 1, "d"), false},
		{"another digest", mk(1.00, 0, "e"), false},
	} {
		var out bytes.Buffer
		same, err := compareFiles(&out, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if same != c.same {
			t.Errorf("%s: compare says same=%v, want %v\n%s", c.name, same, c.same, out.String())
		}
	}
}
