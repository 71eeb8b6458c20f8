package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/platevent"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// TestWrappersAreInvisible holds the tracing to its contract: for every
// built-in policy on three boards — kernels executing on the ZCU102, the
// split "cpu" classes of the Odroid, and a heterogeneous pool under a
// churn schedule fed from a stream — a run through the timing policy,
// sink, source and registry wrappers yields a Report (and record log)
// deep-equal to the bare run's, and stays on the indexed scheduler path.
// The instrument cannot perturb what it measures.
func TestWrappersAreInvisible(t *testing.T) {
	specs := apps.Specs()
	must := func(cfg *platform.Config, err error) *platform.Config {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	validation, err := workload.Validation(specs, map[string]int{
		apps.NameRangeDetection: 1, apps.NameWiFiTX: 1, apps.NameWiFiRX: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := workload.RateTrace(specs, 4, 5*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 20 * vtime.Millisecond
	poisson, err := workload.RatePoisson(1, horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	het := must(platform.SyntheticHet(4, 3, 2))
	churn := platevent.Churn(7, platevent.ChurnConfig{
		NumPEs: len(het.PEs), Horizon: horizon, Events: 400,
		Speeds: []float64{0.6, 1.5}, PowerCaps: []float64{0, 0.8, 1.2}, FaultFraction: 0.4,
	}).PowerCapAt(vtime.Time(horizon), 0)

	boards := []struct {
		name     string
		cfg      *platform.Config
		skip     bool
		arrivals []core.Arrival
		poisson  *workload.PoissonSpec
		events   *platevent.Schedule
	}{
		{name: "zcu102-exec", cfg: must(platform.ZCU102(3, 2)), arrivals: validation},
		{name: "odroid", cfg: must(platform.OdroidXU3(4, 3)), skip: true, arrivals: rate},
		{name: "het-churn-stream", cfg: het, skip: true, poisson: &poisson, events: churn},
	}

	for _, b := range boards {
		for _, policyName := range sched.Names() {
			t.Run(b.name+"/"+policyName, func(t *testing.T) {
				run := func(tr *tracer) (*stats.Report, *stats.FullReport) {
					t.Helper()
					policy, err := sched.New(policyName, 11)
					if err != nil {
						t.Fatal(err)
					}
					log := &stats.FullReport{}
					var sink stats.Sink = log
					reg := apps.Registry()
					var src core.ArrivalSource
					if b.poisson != nil {
						if src, err = workload.NewPoissonSource(specs, *b.poisson); err != nil {
							t.Fatal(err)
						}
					}
					if tr != nil {
						if policy, err = tr.wrapPolicy(policy); err != nil {
							t.Fatal(err)
						}
						sink = tr.wrapSink(sink)
						if reg, err = tr.wrapRegistry(reg); err != nil {
							t.Fatal(err)
						}
						if src != nil {
							src = tr.wrapSource(src)
						}
					}
					e, err := core.New(core.Options{
						Config: b.cfg, Policy: policy, Registry: reg, Seed: 11, JitterSigma: 0.05,
						SkipExecution: b.skip, Sink: sink, Events: b.events, Programs: core.NewProgramCache(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := e.SchedulerPath(); got != core.SchedulerPathIndexed {
						t.Fatalf("scheduler path %q, want %q", got, core.SchedulerPathIndexed)
					}
					var report *stats.Report
					if src != nil {
						report, err = e.RunStream(src)
					} else {
						report, err = e.Run(b.arrivals)
					}
					if err != nil {
						t.Fatal(err)
					}
					return report, log
				}
				bareReport, bareLog := run(nil)
				tr := newTracer()
				report, log := run(tr)
				if !reflect.DeepEqual(report, bareReport) {
					t.Errorf("wrapped report differs from the bare one:\n%s\nvs\n%s", report.Summary(), bareReport.Summary())
				}
				if !reflect.DeepEqual(log, bareLog) {
					t.Errorf("wrapped record log differs from the bare one")
				}
				if len(bareLog.Tasks) == 0 {
					t.Fatal("no task completed; the comparison is vacuous")
				}
				// And the wrappers did see the run.
				if tr.policy.N != int64(report.Sched.Invocations) {
					t.Errorf("policy wrapper saw %d invocations, report has %d", tr.policy.N, report.Sched.Invocations)
				}
				if want := int64(len(log.Tasks) + len(log.Apps)); tr.sink.N != want {
					t.Errorf("sink wrapper saw %d records, log holds %d", tr.sink.N, want)
				}
				if !b.skip && tr.kernels.N != int64(len(log.Tasks)) {
					t.Errorf("registry wrapper saw %d kernel calls for %d tasks", tr.kernels.N, len(log.Tasks))
				}
				if b.poisson != nil && tr.source.N < int64(len(log.Apps)) {
					t.Errorf("source wrapper saw %d Next calls for %d arrivals", tr.source.N, len(log.Apps))
				}
			})
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for ns := int64(1); ns <= 1000; ns++ {
		h.add(time.Duration(ns))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}} {
		got := h.quantile(c.p)
		if got > c.want || got < c.want*0.93 {
			t.Errorf("quantile(%v) = %v, want within 7%% below %v", c.p, got, c.want)
		}
	}
	for _, ns := range []int64{0, 1, 15, 16, 31, 32, 33, 1023, 1024, 1 << 40} {
		var one histogram
		one.add(time.Duration(ns))
		if got := one.quantile(1); got > float64(ns) || got < float64(ns)*0.93 {
			t.Errorf("bucket edge for %d ns is %v", ns, got)
		}
	}
}
