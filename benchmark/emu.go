package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/platevent"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Four workloads are plain emulations and share this driver: a pass is a
// fixed list of arms run in turn on one reused Scratch, each arm a
// core.Options cell plus its input. What differs is which layer the arms
// load (README.md, one paragraph per workload).

// emuArm is one emulation shape. Sources, sinks and policies are built per
// run inside emulate: they are single-use.
type emuArm struct {
	label  string
	policy string
	sigma  float64
	// seed drives the jitter model and a seeded policy; repeat runs the
	// arm that many times with seeds seed, seed+1, ...
	seed   int64
	repeat int
	// skip selects the timing-only path; false executes kernels.
	skip   bool
	events *platevent.Schedule
	// Exactly one input: a materialised trace for batch Run, or a
	// Poisson spec streamed through RunStream.
	arrivals []core.Arrival
	poisson  *workload.PoissonSpec
	// online streams records into stats.Online; false keeps the classic
	// nil-sink Report, which functional checks need.
	online bool
}

// warmShare is the size of set-up's untimed warm-up pass: a tenth of a
// timed pass, which fills the program cache, Scratch and pools and keeps
// setup_s well above timer noise.
const warmShare = 10

// coreCounts are the exact counters one pass's reports carry.
type coreCounts struct {
	invocations, ops, requeues, platEvents int64
	maxReady                               int
}

func (c *coreCounts) add(r *stats.Report) {
	c.invocations += int64(r.Sched.Invocations)
	c.ops += r.Sched.TotalOps
	c.requeues += r.Requeues
	c.platEvents += r.PlatEvents
	c.maxReady = max(c.maxReady, r.Sched.MaxReadyLen)
}

type emuWorkload struct {
	name string
	seed int64
	sz   sizes

	cfg       *platform.Config
	specs     map[string]*appmodel.AppSpec
	reg       *kernels.Registry
	tracedReg *kernels.Registry // wraps reg; nil on an untraced run
	programs  *core.ProgramCache
	scratch   *core.Scratch
	arms      []emuArm
	warm      []emuArm

	// last is the most recent emulation, whose instances check inspects;
	// counts are the most recent pass's.
	last   *core.Emulator
	counts coreCounts
}

func (w *emuWorkload) setup(tr *tracer, traced bool) error {
	w.specs = apps.Specs()
	w.reg = apps.Registry()
	w.programs = core.NewProgramCache()
	w.scratch = core.NewScratch()

	if err := tr.time("platform.build", func() (err error) {
		switch w.name {
		case "steady-stream":
			w.cfg, err = platform.Synthetic(16, 4)
		case "oversub-eft":
			w.cfg, err = platform.OdroidXU3(4, 3)
		case "churn-het":
			w.cfg, err = platform.SyntheticHet(16, 12, 4)
		case "validation-exec":
			w.cfg, err = platform.ZCU102(3, 2)
		}
		return err
	}); err != nil {
		return err
	}

	if traced {
		var err error
		if w.tracedReg, err = tr.wrapRegistry(w.reg); err != nil {
			return err
		}
	}
	for _, reg := range []*kernels.Registry{w.reg, w.tracedReg} {
		if reg == nil {
			continue
		}
		if err := tr.time("core.compile", func() error {
			for _, name := range sortedKeys(w.specs) {
				if _, err := w.programs.Get(w.specs[name], w.cfg, reg); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if err := w.buildArms(tr); err != nil {
		return err
	}

	if err := tr.time("core.new", func() error {
		_, err := core.New(w.options(w.arms[0], w.arms[0].seed, sched.FRFS{}, nil, w.reg))
		return err
	}); err != nil {
		return err
	}

	if traced && w.name == "validation-exec" {
		for _, name := range sortedKeys(w.specs) {
			start := time.Now()
			if _, err := appmodel.NewMemory(w.specs[name]); err != nil {
				return err
			}
			tr.newMemory.add(time.Since(start))
		}
	}

	ps, err := w.runArms(w.warm, nil)
	if err != nil {
		return err
	}
	if ps.failed > 0 {
		return fmt.Errorf("warm-up: %v", ps.notes)
	}
	return nil
}

// buildArms generates every input from the seed.
func (w *emuWorkload) buildArms(tr *tracer) error {
	ms := func(n int64) vtime.Duration { return vtime.Duration(n) * vtime.Millisecond }
	switch w.name {
	case "steady-stream":
		// 2 jobs/ms keeps the 20-PE board's ready window under ~2k tasks.
		// At 3 the board has not diverged yet (it does at 8) but bursts of
		// 770-task pulse-Doppler jobs already back up 5k-12k deep, and
		// host throughput then moves 20% with the seed.
		mk := func(horizon vtime.Duration) ([]emuArm, error) {
			ps, err := workload.RatePoisson(2, horizon, w.seed)
			return []emuArm{{label: "frfs@2", policy: "frfs", seed: w.seed, repeat: 1,
				skip: true, poisson: &ps, online: true}}, err
		}
		err := tr.time("workload.trace_build", func() (err error) {
			if w.arms, err = mk(ms(w.sz.streamMS)); err != nil {
				return err
			}
			w.warm, err = mk(ms(w.sz.streamMS) / warmShare)
			return err
		})
		return err

	case "oversub-eft":
		mk := func(rate float64, i int) (emuArm, error) {
			trace, err := workload.RateTrace(w.specs, rate, workload.TableIIFrame)
			return emuArm{label: fmt.Sprintf("eft@%g", rate), policy: "eft", sigma: 0.05,
				seed: w.seed + int64(i), repeat: 1, skip: true, arrivals: trace, online: true}, err
		}
		err := tr.time("workload.trace_build", func() error {
			for i, rate := range w.sz.oversubRates {
				a, err := mk(rate, i)
				if err != nil {
					return err
				}
				w.arms = append(w.arms, a)
			}
			a, err := mk(w.sz.oversubRates[0]/2, 0)
			w.warm = []emuArm{a}
			return err
		})
		return err

	case "churn-het":
		// One schedule shared by the three policies: 25 events per
		// virtual ms, and the cap lifted at the horizon so the tail
		// drains. eft and eft-power are left out on purpose: under caps
		// they back up into the oversub-eft regime and would measure that.
		var full, small *platevent.Schedule
		churn := func(horizon vtime.Duration) *platevent.Schedule {
			return platevent.Churn(w.seed, platevent.ChurnConfig{
				NumPEs: len(w.cfg.PEs), Horizon: horizon,
				Events: int(25 * horizon / vtime.Millisecond),
				Speeds: []float64{0.6, 1.5}, PowerCaps: []float64{0, 0.8, 1.2},
				FaultFraction: 0.4,
			}).PowerCapAt(vtime.Time(horizon), 0)
		}
		horizon := ms(w.sz.churnMS)
		if err := tr.time("platevent.gen", func() error {
			full, small = churn(horizon), churn(horizon/warmShare)
			return full.Validate(len(w.cfg.PEs))
		}); err != nil {
			return err
		}
		// The arrival stream keeps one seed: pulse-Doppler's 770 tasks make
		// a Poisson stream's task count, and with it wall_s, move +-3% with
		// the seed, and here the schedule is the input under test.
		mk := func(horizon vtime.Duration, ev *platevent.Schedule) ([]emuArm, error) {
			ps, err := workload.RatePoisson(1, horizon, defaultSeed)
			var arms []emuArm
			for _, policy := range []string{"frfs", "frfs-rq", "eft-rq"} {
				arms = append(arms, emuArm{label: policy + "/churn", policy: policy, seed: w.seed,
					repeat: 1, skip: true, events: ev, poisson: &ps, online: true})
			}
			return arms, err
		}
		err := tr.time("workload.trace_build", func() (err error) {
			if w.arms, err = mk(horizon, full); err != nil {
				return err
			}
			w.warm, err = mk(horizon/warmShare, small)
			return err
		})
		return err

	case "validation-exec":
		err := tr.time("workload.trace_build", func() error {
			trace, err := workload.Validation(w.specs, map[string]int{
				apps.NameRangeDetection: 1, apps.NamePulseDoppler: 1,
				apps.NameWiFiTX: 1, apps.NameWiFiRX: 1,
			})
			arm := emuArm{label: "validation", policy: "frfs", sigma: 0.05, seed: w.seed,
				repeat: w.sz.validationEmus, arrivals: trace}
			w.arms = []emuArm{arm}
			arm.repeat = max(1, arm.repeat/warmShare)
			w.warm = []emuArm{arm}
			return err
		})
		return err
	}
	return fmt.Errorf("benchmark: no emulation workload %q", w.name)
}

func (w *emuWorkload) options(a emuArm, seed int64, policy sched.Policy, sink stats.Sink, reg *kernels.Registry) core.Options {
	return core.Options{
		Config: w.cfg, Policy: policy, Registry: reg,
		Seed: seed, JitterSigma: a.sigma, SkipExecution: a.skip,
		Scratch: w.scratch, Programs: w.programs, Sink: sink, Events: a.events,
	}
}

// emulate runs one arm once. With a tracer the policy, sink, source and
// registry are the timing wrappers and the run itself is a span.
func (w *emuWorkload) emulate(a emuArm, seed int64, tr *tracer) (*stats.Report, *stats.Online, error) {
	policy, err := sched.New(a.policy, seed)
	if err != nil {
		return nil, nil, err
	}
	var online *stats.Online
	var sink stats.Sink
	if a.online {
		online = stats.NewOnline(0)
		sink = online
	}
	var src core.ArrivalSource
	if a.poisson != nil {
		if src, err = workload.NewPoissonSource(w.specs, *a.poisson); err != nil {
			return nil, nil, err
		}
	}
	reg := w.reg
	if tr != nil {
		if policy, err = tr.wrapPolicy(policy); err != nil {
			return nil, nil, err
		}
		if sink != nil {
			sink = tr.wrapSink(sink)
		}
		if src != nil {
			src = tr.wrapSource(src)
		}
		reg = w.tracedReg
	}
	e, err := core.New(w.options(a, seed, policy, sink, reg))
	if err != nil {
		return nil, nil, err
	}
	w.last = e
	if path := e.SchedulerPath(); path != core.SchedulerPathIndexed {
		return nil, nil, fmt.Errorf("scheduler path %q, want %q", path, core.SchedulerPathIndexed)
	}
	var report *stats.Report
	run := func() (err error) {
		if src != nil {
			report, err = e.RunStream(src)
		} else {
			report, err = e.Run(a.arrivals)
		}
		return err
	}
	return report, online, tr.time("core.run", run)
}

func (w *emuWorkload) runArms(arms []emuArm, tr *tracer) (passStats, error) {
	var ps passStats
	d := newDigest()
	w.counts = coreCounts{}
	for _, a := range arms {
		for i := 0; i < a.repeat; i++ {
			ps.ops++
			report, online, err := w.emulate(a, a.seed+int64(i), tr)
			if err != nil {
				ps.fail("%s: %v", a.label, err)
				continue
			}
			ps.tasks += d.report(report, online)
			w.counts.add(report)
		}
	}
	ps.digest = d.sum()
	return ps, nil
}

func (w *emuWorkload) pass(tr *tracer) (passStats, error) { return w.runArms(w.arms, tr) }

// check verifies the last emulation's outputs functionally, outside the
// timed region. Only validation-exec executes kernels.
func (w *emuWorkload) check(tr *tracer) []string {
	if w.name != "validation-exec" {
		return nil
	}
	start := time.Now()
	var notes []string
	for _, inst := range w.last.Instances() {
		var err error
		switch inst.Spec.AppName {
		case apps.NameRangeDetection:
			err = apps.CheckRangeDetection(inst.Mem, apps.DefaultRangeParams())
		case apps.NamePulseDoppler:
			err = apps.CheckPulseDoppler(inst.Mem, apps.DefaultDopplerParams())
		case apps.NameWiFiTX:
			err = apps.CheckWiFiTX(inst.Mem, apps.DefaultWiFiParams())
		case apps.NameWiFiRX:
			err = apps.CheckWiFiRX(inst.Mem, apps.DefaultWiFiParams())
		default:
			err = fmt.Errorf("no functional check")
		}
		if err != nil {
			notes = append(notes, fmt.Sprintf("check %s: %v", inst.Spec.AppName, err))
		}
	}
	if tr != nil {
		tr.check.add(time.Since(start))
	}
	return notes
}

func (w *emuWorkload) layers(tr *tracer, m map[string]float64) error {
	m["core.sched_invocations"] = float64(w.counts.invocations)
	m["core.charged_ops"] = float64(w.counts.ops)
	m["core.max_ready"] = float64(w.counts.maxReady)
	m["core.requeues"] = float64(w.counts.requeues)
	m["core.plat_events"] = float64(w.counts.platEvents)
	return nil
}

func (w *emuWorkload) close() error { return nil }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
