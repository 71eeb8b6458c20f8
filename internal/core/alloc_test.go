package core

import (
	"fmt"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// steadyWorkload builds a mixed trace of the three small applications
// (~50 instances, ~370 tasks) with staggered arrivals.
func steadyWorkload(t *testing.T) []Arrival {
	t.Helper()
	rd := apps.RangeDetection(apps.DefaultRangeParams())
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	wrx := apps.WiFiRX(apps.DefaultWiFiParams())
	var out []Arrival
	at := vtime.Time(0)
	for i := 0; i < 17; i++ {
		out = append(out,
			Arrival{Spec: rd, At: at},
			Arrival{Spec: wtx, At: at + 7_000},
			Arrival{Spec: wrx, At: at + 13_000},
		)
		at += 60_000
	}
	return out
}

// TestRunSteadyStateAllocs pins the hot path's allocation behaviour:
// once the scratch and template cache are warm, a timing-only Run may
// allocate only the escaping report (a handful of slice headers plus
// the record arrays) — nothing proportional to tasks x PEs, and no
// per-task maps or lookup structures. The bound is deliberately a
// small constant: the pre-compilation emulator spent ~12 allocations
// per task (95k for this workload scaled up), so any reintroduced
// per-task allocation trips this immediately.
func TestRunSteadyStateAllocs(t *testing.T) {
	trace := steadyWorkload(t)
	e, err := New(Options{
		Config:        zcu(t, 3, 2),
		Policy:        sched.FRFS{},
		Registry:      apps.Registry(),
		Seed:          1,
		SkipExecution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks int
	// Warm the scratch slabs, template cache and pooled buffers.
	for i := 0; i < 2; i++ {
		rep, err := e.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		tasks = len(rep.Tasks)
	}
	if tasks != 17*(6+7+9) {
		t.Fatalf("workload executed %d tasks", tasks)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	})
	// Escaping report: the Report struct, its Tasks/Apps/PEs arrays
	// (with append growth for Apps/PEs), plus pool slack. 64 is ~4x
	// the measured steady state — tight enough that any O(tasks) term
	// (374 tasks here) blows through it.
	if avg > 64 {
		t.Fatalf("steady-state Run allocates %.0f objects for %d tasks; hot path has regressed", avg, tasks)
	}
}

// TestRunSteadyStateAllocsOnlineSink is the sink-path companion of
// TestRunSteadyStateAllocs: with a streaming Online sink no record
// ever escapes, so a warm batch Run must allocate even less — just the
// report header and PE stats. Any per-record allocation in the sink
// routing trips this.
func TestRunSteadyStateAllocsOnlineSink(t *testing.T) {
	trace := steadyWorkload(t)
	sink := stats.NewOnline(0)
	e, err := New(Options{
		Config:        zcu(t, 3, 2),
		Policy:        sched.FRFS{},
		Registry:      apps.Registry(),
		Seed:          1,
		SkipExecution: true,
		Sink:          sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Wait.Count() != 2*17*(6+7+9) {
		t.Fatalf("sink saw %d tasks", sink.Wait.Count())
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	})
	// The report struct + its PE array, and nothing per record. 16 is
	// ~4x the measured steady state.
	if avg > 16 {
		t.Fatalf("steady-state Run with Online sink allocates %.0f objects; sink path regressed", avg)
	}
}

// TestRunSteadyStateAllocsSaturatedEFT is the oversubscribed companion:
// the Fig 11 board under EFT with three pulse-Doppler jobs (770 tasks
// each, hundreds wide) arriving together, so the ready window runs
// hundreds deep and each invocation takes the saturation exit, the
// closed-form tail and the near-head compaction. The per-mask census
// and the compaction must stay off the heap: a warm Run allocates the
// report header and PE stats, nothing per invocation.
func TestRunSteadyStateAllocsSaturatedEFT(t *testing.T) {
	cfg, err := platform.OdroidXU3(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pd := apps.PulseDoppler(apps.DefaultDopplerParams())
	trace := []Arrival{{Spec: pd, At: 0}, {Spec: pd, At: 0}, {Spec: pd, At: 50_000}}
	e, err := New(Options{
		Config:        cfg,
		Policy:        sched.EFT{},
		Registry:      apps.Registry(),
		Seed:          1,
		SkipExecution: true,
		Sink:          stats.NewOnline(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep *stats.Report
	for i := 0; i < 2; i++ {
		if rep, err = e.Run(trace); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Sched.MaxReadyLen < 100 || rep.Sched.Invocations < 100 {
		t.Fatalf("window peaked at %d over %d invocations; the gate needs a saturated run",
			rep.Sched.MaxReadyLen, rep.Sched.Invocations)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	})
	// Same budget as the Online-sink case above: ~4x the steady state.
	if avg > 16 {
		t.Fatalf("saturated EFT Run allocates %.0f objects over %d invocations; the census or compaction reached the heap",
			avg, rep.Sched.Invocations)
	}
}

// TestRunSteadyStateAllocsExecuting is the executing-run companion: a
// 256-task chain whose kernel bumps a counter, under modelled timing.
// Dispatch refills the emulator's one kernels.Context, so a warm Run
// allocates the report, the instance's memory (one variable) and
// nothing per task. The counter proves every kernel saw its arguments
// through the reused context.
func TestRunSteadyStateAllocsExecuting(t *testing.T) {
	const tasks = 256
	spec := &appmodel.AppSpec{
		AppName:      "chain",
		SharedObject: "chain.so",
		Variables:    map[string]appmodel.VariableSpec{"counter": {Bytes: 8}},
		DAG:          map[string]appmodel.NodeSpec{},
	}
	for i := 0; i < tasks; i++ {
		ns := appmodel.NodeSpec{
			Arguments: []string{"counter"},
			Platforms: []appmodel.PlatformSpec{{Name: "cpu", RunFunc: "bump", CostNS: 1000}},
		}
		if i > 0 {
			ns.Predecessors = []string{fmt.Sprintf("n%03d", i-1)}
		}
		spec.DAG[fmt.Sprintf("n%03d", i)] = ns
	}
	spec.Normalize()
	reg := kernels.NewRegistry()
	reg.MustRegister(spec.SharedObject, "bump", func(ctx *kernels.Context) error {
		v, err := ctx.Arg(0)
		if err != nil {
			return err
		}
		v.SetInt64(v.Int64() + 1)
		return nil
	})
	e, err := New(Options{
		Config:   zcu(t, 3, 2),
		Policy:   sched.FRFS{},
		Registry: reg,
		Seed:     1,
		Sink:     stats.NewOnline(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := []Arrival{{Spec: spec}}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Instances()[0].Mem.MustLookup("counter").Int64(); got != tasks {
		t.Fatalf("counter = %d after %d executing tasks", got, tasks)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(trace); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 32 {
		t.Fatalf("executing Run allocates %.0f objects for %d tasks; dispatch allocates per task again", avg, tasks)
	}
}

// TestScheduleSteadyStateAllocs1024PE pins the indexed scheduler's
// allocation behaviour at the synthetic testbed's extreme: 1024 PEs
// (960 cores + 64 accelerators). Once the view's bitmap scratch and
// the pooled buffers are warm, schedule() must not allocate per
// invocation under any built-in policy family — the run's allocations
// stay a small constant (report header + per-PE stats growth), with
// no term proportional to invocations, ready length or PE count. The
// run drives a few hundred invocations, so a single per-invocation
// allocation blows the bound by an order of magnitude.
func TestScheduleSteadyStateAllocs1024PE(t *testing.T) {
	cfg, err := platform.Synthetic(960, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cfg.PEs); got != 1024 {
		t.Fatalf("synthetic config has %d PEs, want 1024", got)
	}
	// A dense drip of arrivals: every injection and every completion
	// batch is a separate scheduler invocation, so the run exercises
	// schedule() hundreds of times even though the huge pool never
	// saturates.
	rd := apps.RangeDetection(apps.DefaultRangeParams())
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	wrx := apps.WiFiRX(apps.DefaultWiFiParams())
	// Spacing matters: monitoring 1024 handlers charges ~340us of
	// overlay time per collected completion (the Figure 11 effect at
	// its extreme), so arrivals closer than a few milliseconds clump
	// into one overhead window and share an invocation.
	var trace []Arrival
	at := vtime.Time(0)
	for i := 0; i < 100; i++ {
		trace = append(trace,
			Arrival{Spec: rd, At: at},
			Arrival{Spec: wtx, At: at + 3_400_000},
			Arrival{Spec: wrx, At: at + 6_700_000},
		)
		at += 10_200_000
	}
	for _, policyName := range []string{"frfs", "met", "eft", "random", "frfs-rq", "eft-rq"} {
		policy, err := sched.New(policyName, 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Options{
			Config:        cfg,
			Policy:        policy,
			Registry:      apps.Registry(),
			Seed:          1,
			SkipExecution: true,
			Sink:          stats.Discard{},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := e.Run(trace); err != nil {
				t.Fatal(err)
			}
		}
		var invocations int
		avg := testing.AllocsPerRun(5, func() {
			rep, err := e.Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			invocations = rep.Sched.Invocations
		})
		// Report struct + the PEs slice growing to 1024 entries (~12
		// appends) + pool slack; ~4x the measured steady state and far
		// below one allocation per invocation.
		if avg > 64 {
			t.Fatalf("%s: steady-state 1024-PE Run allocates %.0f objects over %d schedule() invocations; the indexed scheduler hot path has regressed",
				policyName, avg, invocations)
		}
		if invocations < 100 {
			t.Fatalf("%s: workload drove only %d invocations; the regression gate needs a busier trace", policyName, invocations)
		}
	}
}

// TestManyPEConfigDeterministic exercises the next-event tracker and
// the scheduler hot path on a synthetic 64-PE configuration — far past
// any COTS board — and checks full determinism across repeated runs.
func TestManyPEConfigDeterministic(t *testing.T) {
	cfg, err := platform.Synthetic(48, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := steadyWorkload(t)
	for _, policyName := range []string{"frfs", "eft", "frfs-rq", "random"} {
		policy, err := sched.New(policyName, 2)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Options{
			Config:        cfg,
			Policy:        policy,
			Registry:      apps.Registry(),
			Seed:          3,
			JitterSigma:   0.03,
			SkipExecution: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := e.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", policyName, err)
		}
		r2, err := e.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", policyName, err)
		}
		if len(r1.Tasks) != len(trace)/3*(6+7+9) {
			t.Fatalf("%s: %d tasks", policyName, len(r1.Tasks))
		}
		compareReports(t, r1, r2)
		// The tracker must have collected every dispatched task: each
		// (instance, node) pair appears exactly once.
		seen := map[[2]string]map[int]bool{}
		for _, r := range r1.Tasks {
			k := [2]string{r.App, r.Node}
			if seen[k] == nil {
				seen[k] = map[int]bool{}
			}
			if seen[k][r.Instance] {
				t.Fatalf("%s: task %s#%d/%s completed twice", policyName, r.App, r.Instance, r.Node)
			}
			seen[k][r.Instance] = true
		}
	}
}
