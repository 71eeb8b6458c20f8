package core

import (
	"strings"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func zcu(t *testing.T, cores, ffts int) *platform.Config {
	t.Helper()
	cfg, err := platform.ZCU102(cores, ffts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func emulator(t *testing.T, cfg *platform.Config, policy string) *Emulator {
	t.Helper()
	p, err := sched.New(policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Config: cfg, Policy: p, Registry: apps.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t *testing.T, e *Emulator, arrivals []Arrival) *Emulator {
	t.Helper()
	if _, err := e.Run(arrivals); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	cfg := zcu(t, 1, 0)
	pol, _ := sched.New("frfs", 1)
	if _, err := New(Options{Policy: pol, Registry: apps.Registry()}); err == nil {
		t.Fatal("nil config accepted")
	}
	if _, err := New(Options{Config: cfg, Registry: apps.Registry()}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := New(Options{Config: cfg, Policy: pol}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestSingleRangeDetection(t *testing.T) {
	p := apps.DefaultRangeParams()
	spec := apps.RangeDetection(p)
	e := emulator(t, zcu(t, 1, 0), "frfs")
	report, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tasks) != 6 {
		t.Fatalf("executed %d tasks, want 6", len(report.Tasks))
	}
	if len(report.Apps) != 1 || report.Apps[0].App != apps.NameRangeDetection {
		t.Fatalf("app records: %+v", report.Apps)
	}
	if report.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// Functional verification: the emulated pipeline found the target.
	if err := apps.CheckRangeDetection(e.instances[0].Mem, p); err != nil {
		t.Fatal(err)
	}
}

func TestTaskRecordsConsistent(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	e := emulator(t, zcu(t, 2, 1), "frfs")
	report, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range report.Tasks {
		if r.Start < r.Ready {
			t.Fatalf("%s started before ready", r.Node)
		}
		if r.End <= r.Start {
			t.Fatalf("%s has non-positive duration", r.Node)
		}
		seen[r.Node] = true
	}
	// DAG precedence respected in virtual time.
	byNode := map[string]vtime.Time{}
	startOf := map[string]vtime.Time{}
	for _, r := range report.Tasks {
		byNode[r.Node] = r.End
		startOf[r.Node] = r.Start
	}
	//repolint:allow detorder assertion-only scan; any precedence violation fails the test whichever node is visited first
	for name, node := range spec.DAG {
		for _, pred := range node.Predecessors {
			if startOf[name] < byNode[pred] {
				t.Fatalf("%s started at %v before predecessor %s ended at %v",
					name, startOf[name], pred, byNode[pred])
			}
		}
	}
}

func TestFullWorkloadAllPoliciesFunctional(t *testing.T) {
	// One instance of each application on 3C+2F under every policy:
	// scheduling must never change numeric results.
	rp := apps.DefaultRangeParams()
	wp := apps.DefaultWiFiParams()
	for _, policy := range sched.Names() {
		specs := []*appmodel.AppSpec{
			apps.RangeDetection(rp),
			apps.WiFiTX(wp),
			apps.WiFiRX(wp),
		}
		var arrivals []Arrival
		for _, s := range specs {
			arrivals = append(arrivals, Arrival{Spec: s, At: 0})
		}
		e := emulator(t, zcu(t, 3, 2), policy)
		report, err := e.Run(arrivals)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(report.Tasks) != 6+7+9 {
			t.Fatalf("%s: %d tasks", policy, len(report.Tasks))
		}
		for _, inst := range e.instances {
			var err error
			switch inst.Spec.AppName {
			case apps.NameRangeDetection:
				err = apps.CheckRangeDetection(inst.Mem, rp)
			case apps.NameWiFiTX:
				err = apps.CheckWiFiTX(inst.Mem, wp)
			case apps.NameWiFiRX:
				err = apps.CheckWiFiRX(inst.Mem, wp)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", policy, inst.Spec.AppName, err)
			}
		}
	}
}

func TestPulseDopplerThroughEmulator(t *testing.T) {
	if testing.Short() {
		t.Skip("770-task emulation")
	}
	p := apps.DefaultDopplerParams()
	e := emulator(t, zcu(t, 3, 2), "frfs")
	report, err := e.Run([]Arrival{{Spec: apps.PulseDoppler(p), At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tasks) != 770 {
		t.Fatalf("executed %d tasks, want 770", len(report.Tasks))
	}
	if err := apps.CheckPulseDoppler(e.instances[0].Mem, p); err != nil {
		t.Fatal(err)
	}
	// The accelerators should have picked up part of the FFT load
	// under FRFS with busy cores.
	fftTasks := 0
	for _, r := range report.Tasks {
		if r.Platform == "fft" {
			fftTasks++
		}
	}
	if fftTasks == 0 {
		t.Fatal("no task ever ran on an FFT accelerator")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	mk := func() vtime.Duration {
		e, err := New(Options{
			Config:   zcu(t, 2, 1),
			Policy:   sched.FRFS{},
			Registry: apps.Registry(),
			Seed:     42, JitterSigma: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run([]Arrival{{Spec: spec, At: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same seed produced different makespans: %v vs %v", a, b)
	}
	// Rerunning the same emulator is also deterministic.
	e := emulator(t, zcu(t, 2, 1), "frfs")
	r1, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("emulator reuse not deterministic: %v vs %v", r1.Makespan, r2.Makespan)
	}
}

func TestJitterChangesSpread(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	makespan := func(seed int64) vtime.Duration {
		e, _ := New(Options{
			Config:   zcu(t, 1, 0),
			Policy:   sched.FRFS{},
			Registry: apps.Registry(),
			Seed:     seed, JitterSigma: 0.05,
		})
		r, err := e.Run([]Arrival{{Spec: spec, At: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	if makespan(1) == makespan(2) {
		t.Fatal("different jitter seeds produced identical makespans")
	}
}

func TestMorePEsShortenMakespan(t *testing.T) {
	// The core Figure 9 relation: 3C+0F beats 1C+0F on a multi-app
	// workload.
	wp := apps.DefaultWiFiParams()
	arr := func() []Arrival {
		return []Arrival{
			{Spec: apps.RangeDetection(apps.DefaultRangeParams()), At: 0},
			{Spec: apps.WiFiTX(wp), At: 0},
			{Spec: apps.WiFiRX(wp), At: 0},
		}
	}
	small, err := emulator(t, zcu(t, 1, 0), "frfs").Run(arr())
	if err != nil {
		t.Fatal(err)
	}
	big, err := emulator(t, zcu(t, 3, 0), "frfs").Run(arr())
	if err != nil {
		t.Fatal(err)
	}
	if big.Makespan >= small.Makespan {
		t.Fatalf("3C+0F (%v) not faster than 1C+0F (%v)", big.Makespan, small.Makespan)
	}
}

func TestUtilizationBounds(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	report, err := emulator(t, zcu(t, 2, 1), "frfs").Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range report.PEs {
		u := report.Utilization(pe.PEID)
		if u < 0 || u > 1 {
			t.Fatalf("PE %d utilization %v outside [0,1]", pe.PEID, u)
		}
	}
	if report.Utilization(99) != 0 {
		t.Fatal("unknown PE should have zero utilization")
	}
}

func TestSchedulingOverheadCharged(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	report, err := emulator(t, zcu(t, 1, 0), "frfs").Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Sched.Invocations == 0 || report.Sched.OverheadNS == 0 {
		t.Fatalf("no scheduling overhead recorded: %+v", report.Sched)
	}
	// FRFS on the A53 overlay: overhead per invocation is in the
	// microsecond range (the paper's ~2.5us).
	avg := report.Sched.AvgOverheadNS()
	if avg < 500 || avg > 20_000 {
		t.Fatalf("FRFS avg overhead %vns outside the plausible band", avg)
	}
}

func TestArrivalInjectionTiming(t *testing.T) {
	wp := apps.DefaultWiFiParams()
	spec := apps.WiFiTX(wp)
	at := vtime.Time(5 * vtime.Millisecond)
	report, err := emulator(t, zcu(t, 1, 0), "frfs").Run([]Arrival{{Spec: spec, At: at}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Apps[0].Injected < at {
		t.Fatalf("injected at %v before arrival %v", report.Apps[0].Injected, at)
	}
	for _, r := range report.Tasks {
		if r.Start < at {
			t.Fatalf("task %s started before the app arrived", r.Node)
		}
	}
	if vtime.Time(report.Makespan) < at {
		t.Fatal("makespan ignores the arrival offset")
	}
}

func TestNegativeArrivalRejected(t *testing.T) {
	spec := apps.WiFiTX(apps.DefaultWiFiParams())
	if _, err := emulator(t, zcu(t, 1, 0), "frfs").Run([]Arrival{{Spec: spec, At: -1}}); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if _, err := emulator(t, zcu(t, 1, 0), "frfs").Run([]Arrival{{}}); err == nil {
		t.Fatal("nil spec accepted")
	}
}

// TestRunBadEntryFailsBeforeSink pins Run's up-front validation now that
// instances are stamped lazily, at injection: a trace whose LAST-arriving
// entry is bad — no application, or one that cannot compile — fails
// before the first event, so the sink sees no record and no kernel runs,
// instead of erroring 199 applications in.
func TestRunBadEntryFailsBeforeSink(t *testing.T) {
	good := apps.WiFiTX(apps.DefaultWiFiParams())
	// A registry holding good's kernels behind a call counter.
	calls := 0
	reg := kernels.NewRegistry()
	for _, node := range good.DAG { //repolint:allow detorder registration order is immaterial: the registry is a map
		for _, plat := range node.Platforms {
			so := plat.SharedObject
			if so == "" {
				so = good.SharedObject
			}
			f, err := apps.Registry().Lookup(so, plat.RunFunc)
			if err != nil {
				t.Fatal(err)
			}
			// Nodes share kernels; the refused duplicate is already counted.
			_ = reg.Register(so, plat.RunFunc, func(ctx *kernels.Context) error {
				calls++
				return f(ctx)
			})
		}
	}
	ghost := apps.RangeDetection(apps.DefaultRangeParams())
	n := ghost.DAG["MAX"]
	n.Platforms = []appmodel.PlatformSpec{{Name: "cpu", RunFunc: "ghost_func", CostNS: 10}}
	ghost.DAG["MAX"] = n

	for _, bad := range []*appmodel.AppSpec{nil, ghost} {
		name := "uncompilable spec"
		if bad == nil {
			name = "nil spec"
		}
		// The bad entry leads the slice but arrives last.
		trace := []Arrival{{Spec: bad, At: 200_000_000}}
		for i := 0; i < 199; i++ {
			trace = append(trace, Arrival{Spec: good, At: vtime.Time(i) * 1_000_000})
		}
		sink := &stats.FullReport{}
		calls = 0
		e, err := New(Options{
			Config: zcu(t, 2, 1), Policy: sched.FRFS{}, Registry: reg, Seed: 1,
			Sink: sink, Programs: NewProgramCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(trace); err == nil {
			t.Fatalf("%s: Run accepted the trace", name)
		}
		if len(sink.Tasks) != 0 || len(sink.Apps) != 0 || calls != 0 {
			t.Fatalf("%s: Run failed after %d task records, %d app records, %d kernel calls; want none",
				name, len(sink.Tasks), len(sink.Apps), calls)
		}
		if got := e.Instances(); len(got) != 0 {
			t.Fatalf("%s: failed Run lists %d instances", name, len(got))
		}
		// The same emulator still runs the good part of the trace.
		if _, err := e.Run(trace[1:]); err != nil {
			t.Fatalf("%s: good trace after the failure: %v", name, err)
		}
		if len(sink.Apps) != 199 || calls == 0 || len(e.Instances()) != 199 {
			t.Fatalf("%s: good trace delivered %d apps, %d kernel calls, %d instances",
				name, len(sink.Apps), calls, len(e.Instances()))
		}
	}
}

func TestUnknownRunFuncFailsAtParse(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	n := spec.DAG["MAX"]
	n.Platforms = []appmodel.PlatformSpec{{Name: "cpu", RunFunc: "ghost_func", CostNS: 10}}
	spec.DAG["MAX"] = n
	_, err := emulator(t, zcu(t, 1, 0), "frfs").Run([]Arrival{{Spec: spec, At: 0}})
	if err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Fatalf("want undefined-symbol parse error, got %v", err)
	}
}

func TestUnsupportedPlatformFailsAtParse(t *testing.T) {
	// An fft-only node cannot run on a CPU-only configuration.
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	n := spec.DAG["FFT_0"]
	var fftOnly []appmodel.PlatformSpec
	for _, p := range n.Platforms {
		if p.Name == "fft" {
			fftOnly = append(fftOnly, p)
		}
	}
	n.Platforms = fftOnly
	spec.DAG["FFT_0"] = n
	_, err := emulator(t, zcu(t, 2, 0), "frfs").Run([]Arrival{{Spec: spec, At: 0}})
	if err == nil || !strings.Contains(err.Error(), "supports no PE") {
		t.Fatalf("want unsupported-platform error, got %v", err)
	}
}

func TestAcceleratorContentionSlowsTransfers(t *testing.T) {
	// Figure 9's 2C+2F anomaly: with both FFT manager threads sharing
	// one host core, accelerator tasks take longer than with a
	// dedicated manager core (1C+2F placement).
	spec := apps.RangeDetection(apps.DefaultRangeParams())

	durOn := func(cfg *platform.Config) vtime.Duration {
		e := emulator(t, cfg, "met") // MET chooses fastest annotated platform
		_, err := e.Run([]Arrival{{Spec: spec, At: 0}})
		if err != nil {
			t.Fatal(err)
		}
		var total vtime.Duration
		var count int
		for _, r := range e.report.Tasks {
			if r.Platform == "fft" {
				total += r.Duration()
				count++
			}
		}
		if count == 0 {
			return 0
		}
		return total / vtime.Duration(count)
	}
	shared := durOn(zcu(t, 2, 2))    // both managers share one core
	dedicated := durOn(zcu(t, 1, 2)) // one manager per unused core
	if shared == 0 || dedicated == 0 {
		t.Skip("MET did not route any task to the accelerator")
	}
	if shared <= dedicated {
		t.Fatalf("shared-manager accel tasks (%v) not slower than dedicated (%v)", shared, dedicated)
	}
}

func TestReservationQueuePolicy(t *testing.T) {
	wp := apps.DefaultWiFiParams()
	arr := []Arrival{
		{Spec: apps.RangeDetection(apps.DefaultRangeParams()), At: 0},
		{Spec: apps.WiFiTX(wp), At: 0},
		{Spec: apps.WiFiRX(wp), At: 0},
	}
	rq, err := emulator(t, zcu(t, 2, 0), "frfs-rq").Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := emulator(t, zcu(t, 2, 0), "frfs").Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rq.Tasks) != len(plain.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(rq.Tasks), len(plain.Tasks))
	}
	// Queued dispatch skips scheduler invocations: strictly fewer.
	if rq.Sched.Invocations >= plain.Sched.Invocations {
		t.Fatalf("reservation queues did not reduce invocations: %d vs %d",
			rq.Sched.Invocations, plain.Sched.Invocations)
	}
}

func TestMeasuredTimingMode(t *testing.T) {
	spec := apps.WiFiTX(apps.DefaultWiFiParams())
	e, err := New(Options{
		Config:   zcu(t, 1, 0),
		Policy:   sched.FRFS{},
		Registry: apps.Registry(),
		Timing:   Measured,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Makespan <= 0 {
		t.Fatal("measured mode produced zero makespan")
	}
	if err := apps.CheckWiFiTX(e.instances[0].Mem, apps.DefaultWiFiParams()); err != nil {
		t.Fatal(err)
	}
}

func TestSkipExecutionTimingOnly(t *testing.T) {
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	e, err := New(Options{
		Config:        zcu(t, 1, 0),
		Policy:        sched.FRFS{},
		Registry:      apps.Registry(),
		SkipExecution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tasks) != 6 || report.Makespan <= 0 {
		t.Fatalf("timing-only run incomplete: %d tasks", len(report.Tasks))
	}
	// Timing-only instances never allocate variable memory, so kernels
	// cannot have executed.
	if e.instances[0].Mem != nil {
		t.Fatal("SkipExecution still allocated instance memory")
	}
	// Timing must match a functional run exactly: execution and the
	// timing model are independent.
	ef, err := New(Options{
		Config:   zcu(t, 1, 0),
		Policy:   sched.FRFS{},
		Registry: apps.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ef.Run([]Arrival{{Spec: spec, At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Makespan != report.Makespan {
		t.Fatalf("timing-only makespan %v != functional %v", report.Makespan, full.Makespan)
	}
}

func TestStatusString(t *testing.T) {
	if StatusIdle.String() != "idle" || StatusRun.String() != "run" || StatusComplete.String() != "complete" {
		t.Fatal("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status string empty")
	}
}

func TestEmptyWorkload(t *testing.T) {
	report, err := emulator(t, zcu(t, 1, 0), "frfs").Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Makespan != 0 || len(report.Tasks) != 0 {
		t.Fatalf("empty workload produced %v / %d tasks", report.Makespan, len(report.Tasks))
	}
}
