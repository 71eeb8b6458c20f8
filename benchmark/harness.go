package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// sizes scales every workload. fullSizes is what `-workload` runs and
// what expected/digests.json was recorded at; smokeSizes keeps the same
// code paths under `go test` in a few seconds. Full sizes aim at a timed
// pass of one to two seconds on the 2-CPU host, so that a 10 s run holds
// five or more passes and the medians are steady.
type sizes struct {
	name string
	// setups is the least number of set-ups per run (setup_s is their
	// median; short ones repeat up to three times as often until they add
	// up to a second), minPasses the least number of timed passes behind
	// every other median, however short the run.
	setups, minPasses int
	// steady-stream and churn-het virtual horizons, in ms.
	streamMS, churnMS int64
	// oversub-eft injection rates (jobs/ms) over the 100 ms frame.
	oversubRates []float64
	// validation-exec emulations per pass.
	validationEmus int
	// The daemon grid is 3 policies x 4 rates x daemonSeeds jitter seeds;
	// a daemon-warm pass is warmPosts POSTs of it.
	daemonSeeds, warmPosts int
	// Direct-call sample counts on the traced daemon-sweep run.
	emptyCells, ledgerGets int
	suite                  suiteSizes
}

var fullSizes = sizes{
	name:   "full",
	setups: 3, minPasses: 3,
	streamMS: 40_000, churnMS: 20_000,
	oversubRates:   []float64{4, 6},
	validationEmus: 100,
	daemonSeeds:    10, warmPosts: 800,
	emptyCells: 10_000, ledgerGets: 100_000,
	suite: suiteSizes{fig9Iters: 50, fig10Rows: 2, fig11Rates: []float64{4, 8, 12},
		cs4N: 256, scaleRates: []float64{8, 16}, scaleConfigs: 3,
		saturationConfigs: 1, churnConfigs: 1, cs4FullN: 1024},
}

var smokeSizes = sizes{
	name:   "smoke",
	setups: 1, minPasses: 2,
	streamMS: 500, churnMS: 300,
	oversubRates:   []float64{1.5},
	validationEmus: 3,
	daemonSeeds:    1, warmPosts: 5,
	emptyCells: 100, ledgerGets: 1000,
	suite: suiteSizes{fig9Iters: 2, fig10Rows: 1, fig11Rates: []float64{4},
		cs4N: 64, scaleRates: []float64{8}, scaleConfigs: 1,
		saturationRates: []float64{1, 4}, saturationConfigs: 1, churnConfigs: 1, cs4FullN: 64},
}

// passStats is what one timed pass reports.
type passStats struct {
	// tasks are emulated tasks read from sinks, reports and response
	// lines — never assumed — and taskTime the host time that produced
	// them (0: the whole pass).
	tasks    int64
	taskTime time.Duration
	// ops counts operations: one emulation, one POST, one grid cell or
	// one experiment. notes describes each failed one.
	ops, failed int
	notes       []string
	digest      string
}

func (p *passStats) fail(format string, args ...any) {
	p.failed++
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// scenario is the code behind one named workload of the table. setup
// builds inputs from the seed and warms caches; pass is the timed region;
// check runs after each pass, untimed; layers adds the workload's own
// per-layer metrics.
type scenario interface {
	setup(tr *tracer, traced bool) error
	pass(tr *tracer) (passStats, error)
	check(tr *tracer) []string
	layers(tr *tracer, m map[string]float64) error
	close() error
}

func newScenario(name string, seed int64, sz sizes, scratchDir string) (scenario, error) {
	switch name {
	case "steady-stream", "oversub-eft", "churn-het", "validation-exec":
		return &emuWorkload{name: name, seed: seed, sz: sz}, nil
	case "daemon-sweep", "daemon-warm":
		return &daemonWorkload{warm: name == "daemon-warm", seed: seed, sz: sz, scratchDir: scratchDir}, nil
	case "paper-suite":
		return &suiteWorkload{sz: sz.suite}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (see -list)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the driver's last stdout line is
// its correct/attempted/failed/metrics, and the whole of it is written
// beside the trace for -compare and the all-workloads mode.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"sim_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
}

//go:embed expected/digests.json
var expectedDigestsJSON []byte

// expectedDigests maps workload name to its sim_digest at the default
// seed and full sizes.
func expectedDigests() (map[string]string, error) {
	var m map[string]string
	err := json.Unmarshal(expectedDigestsJSON, &m)
	return m, err
}

// runOpts is one invocation of run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	// outDir receives the result and (traced) the trace, and holds the
	// daemon workloads' state directories while they run.
	outDir string
	// skipExpected leaves expected/digests.json out (it is being rewritten).
	skipExpected bool
}

// run measures one workload for about o.seconds seconds.
func run(o runOpts) (*runResult, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()

	var w scenario
	var setups []time.Duration
	var setupTotal time.Duration
	for i := 0; i < o.sz.setups || i < 3*o.sz.setups && setupTotal < time.Second; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: %w", o.workload, err)
			}
		}
		id := tr.begin("setup")
		var err error
		if w, err = newScenario(o.workload, o.seed, o.sz, o.outDir); err == nil {
			err = w.setup(tr, o.traced)
		}
		setups = append(setups, tr.end(id))
		setupTotal += setups[i]
		if err != nil {
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
	}

	res := &runResult{Workload: o.workload, Seed: o.seed, Traced: o.traced, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		res.Failed = min(res.Failed+1, res.Attempted)
	}
	ts, err := timePasses(o, w, tr, res)
	if err != nil {
		w.close()
		return nil, err
	}
	if err := w.close(); err != nil {
		fail("%v", err)
	}

	if o.seed == defaultSeed && o.sz.name == fullSizes.name && !o.skipExpected {
		want, err := expectedDigests()
		if err != nil {
			return nil, fmt.Errorf("expected/digests.json: %w", err)
		}
		if want[o.workload] != res.Digest {
			fail("sim_digest %s, expected/digests.json has %q", res.Digest, want[o.workload])
		}
	}

	m := map[string]float64{}
	defs := endToEnd
	if !o.traced {
		res.Passes = len(ts.plain)
		m["wall_s"] = median(ts.plain)
		m["tasks_per_s"] = median(ts.rates)
		m["peak_rss_mb"] = median(ts.rss)
		m["setup_s"] = median(seconds64(setups))
	} else {
		defs = perLayer
		res.Passes = len(ts.traced)
		for _, d := range perLayer {
			m[d.Name] = 0 // a layer the workload bypasses reads 0
		}
		layerMetrics(tr, ts, m)
		if err := w.layers(tr, m); err != nil {
			fail("%v", err)
		}
		if err := tr.write(filepath.Join(o.outDir, "trace."+o.workload+".json"), o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	if len(m) != len(defs) {
		panic(fmt.Sprintf("benchmark: %d metrics computed, the table declares %d", len(m), len(defs)))
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " of the table was not computed")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(resultPath(o.outDir, o.workload, o.traced), b, 0o644)
}

// timings are the samples of one run's timed passes.
type timings struct {
	// plain and traced are pass seconds; rates and rss are the untraced
	// passes' tasks per second and peak resident MB.
	plain, traced, rates, rss []float64
	// tasks is what one traced pass emulated.
	tasks int64
	// before and after bracket all the passes.
	before, after runtime.MemStats
}

// timePasses repeats the timed pass until o.seconds have gone by, at
// least minPasses times (of each kind on a traced run, where traced and
// untraced passes alternate), verifying each and folding operations,
// failures and the digest into res.
func timePasses(o runOpts, w scenario, tr *tracer, res *runResult) (*timings, error) {
	ts := new(timings)
	passes := o.sz.minPasses
	if o.traced {
		passes *= 2
	}
	runtime.ReadMemStats(&ts.before)
	start := time.Now()
	for i := 0; i < passes || time.Since(start).Seconds() < o.seconds; i++ {
		var ptr *tracer
		spanName := "pass"
		if o.traced && i%2 == 1 {
			ptr, spanName = tr, "pass.traced"
		}
		// Every pass starts from the live heap alone, so GC cycles fall at
		// the same points of each pass, and with the resident-set mark reset.
		runtime.GC()
		resetPeakRSS()
		id := tr.begin(spanName)
		ps, err := w.pass(ptr)
		d := tr.end(id)
		if err != nil {
			ps.ops = max(ps.ops, 1)
			ps.fail("pass %d: %v", i, err)
		}
		peak, rssErr := peakRSSMB()
		if rssErr != nil {
			return nil, rssErr
		}
		for _, note := range w.check(ptr) {
			ps.fail("pass %d: %s", i, note)
		}
		switch {
		case res.Digest == "":
			res.Digest = ps.digest
		case ps.digest != res.Digest:
			ps.fail("pass %d: sim_digest %s differs from the first pass's %s", i, ps.digest, res.Digest)
		}
		res.Attempted += ps.ops
		res.Failed += min(ps.failed, ps.ops)
		res.Failures = append(res.Failures, ps.notes...)
		if err != nil {
			break
		}
		if ptr != nil {
			ts.traced = append(ts.traced, d.Seconds())
			ts.tasks = ps.tasks
			continue
		}
		ts.plain = append(ts.plain, d.Seconds())
		ts.rss = append(ts.rss, peak)
		taskTime := ps.taskTime
		if taskTime == 0 {
			taskTime = d
		}
		ts.rates = append(ts.rates, float64(ps.tasks)/taskTime.Seconds())
	}
	runtime.ReadMemStats(&ts.after)
	return ts, nil
}

// layerMetrics turns the tracer's spans and counters into the per-layer
// metrics every workload shares. Busy times and counts are per traced
// pass; set-up stages are the median over the set-ups.
func layerMetrics(tr *tracer, ts *timings, m map[string]float64) {
	n := float64(len(ts.traced))
	stage := func(metric, span string, unit time.Duration) {
		m[metric] = median(seconds64(tr.durations(span))) * float64(time.Second/unit)
	}
	stage("platform.build_us", "platform.build", time.Microsecond)
	stage("core.compile_ms", "core.compile", time.Millisecond)
	stage("core.new_us", "core.new", time.Microsecond)
	stage("workload.trace_build_ms", "workload.trace_build", time.Millisecond)
	stage("platevent.gen_ms", "platevent.gen", time.Millisecond)

	// The event loop's self time: its spans minus what the wrapped
	// layers inside them took.
	children := tr.policy.Busy + tr.sink.Busy + tr.source.Busy + tr.kernels.Busy
	if runs := tr.total("core.run"); runs > 0 {
		m["core.run_self_s"] = (runs - children).Seconds() / n
		m["core.self_ns_per_task"] = float64(runs-children) / n / float64(ts.tasks)
	}
	m["sched.policy_busy_s"] = tr.policy.seconds() / n
	m["sched.invocations"] = float64(tr.policy.N) / n
	m["sched.ns_per_invocation_p50"] = tr.policyHist.quantile(0.50)
	m["sched.ns_per_invocation_p99"] = tr.policyHist.quantile(0.99)
	m["sched.assignments"] = float64(tr.assignments) / n
	if tr.policy.N > 0 {
		m["sched.empty_invocation_share"] = float64(tr.policyEmpty) / float64(tr.policy.N)
		m["sched.charged_ops_per_host_s"] = float64(tr.policyOps) / tr.policy.seconds()
	}
	m["stats.sink_busy_s"] = tr.sink.seconds() / n
	m["stats.records"] = float64(tr.sink.N) / n
	m["stats.ns_per_record"] = tr.sink.nsPer()
	m["workload.source_busy_s"] = tr.source.seconds() / n
	m["workload.arrivals"] = float64(tr.source.N) / n
	m["kernels.busy_s"] = tr.kernels.seconds() / n
	m["kernels.calls"] = float64(tr.kernels.N) / n
	m["kernels.fft_busy_s"] = tr.fft.seconds() / n
	m["kernels.viterbi_busy_s"] = tr.viterbi.seconds() / n
	m["appmodel.newmemory_us"] = tr.newMemory.nsPer() / 1e3
	m["apps.check_ms"] = tr.check.nsPer() / 1e6

	// The host, per pass of either kind; the collection forced before
	// each pass is not counted.
	all := float64(len(ts.plain) + len(ts.traced))
	before, after := &ts.before, &ts.after
	m["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / all
	m["host.gc_count"] = float64(after.NumGC-before.NumGC-(after.NumForcedGC-before.NumForcedGC)) / all
	m["host.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / all
	if ts.tasks > 0 {
		m["host.mallocs_per_ktask"] = float64(after.Mallocs-before.Mallocs) / all / float64(ts.tasks) * 1000
	}

	if base := median(ts.plain); base > 0 {
		m["bench.trace_overhead_pct"] = (median(ts.traced) - base) / base * 100
	}
	m["bench.traced_passes"] = n
	// What one wrapped call pays for being timed: the wrappers' own two
	// clock reads and counter update around nothing.
	const calls = 200_000
	var timer counter
	loop := time.Now()
	for i := 0; i < calls; i++ {
		start := time.Now()
		timer.add(time.Since(start))
	}
	m["bench.timer_ns"] = float64(time.Since(loop)) / calls
}

func resultPath(outDir, workload string, traced bool) string {
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	return filepath.Join(outDir, "run."+workload+"."+kind+".json")
}

// resetPeakRSS zeroes the kernel's high-water mark of this process's
// resident set (Linux: "5" into /proc/self/clear_refs), so that the mark
// read after a pass is that pass's own peak. Where the kernel refuses, the
// mark stays the whole process's and peak_rss_mb reads higher; the
// refusal is reported once.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		warnNoReset.Do(func() {
			fmt.Fprintln(os.Stderr, "benchmark: peak_rss_mb covers the whole process, set-up included:", err)
		})
	}
}

var warnNoReset sync.Once

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

func seconds64(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median of a copy; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileOf returns the p-quantile of xs by nearest rank; 0 for none.
func quantileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
