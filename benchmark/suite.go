package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/minic"
	"repro/internal/outliner"
	"repro/internal/sweep"
)

// paper-suite is what `cmd/experiments -exp all` makes a person wait for,
// in process and in the command's order. At the command's defaults one
// pass is 12.7 s on this host (cs4 5.1 s, fig10 3.1 s), too long for a
// median inside a 10 s run, so the slow studies run reduced (sizes); the
// cheap ones keep their defaults. It is the only workload that runs the
// conversion toolchain, and the one that shows a gain for one study
// costing another. The full-size cs4, whose speed-ups are the ones the
// paper states, runs once on the traced run, outside the timed passes.

type suiteSizes struct {
	fig9Iters, fig10Rows            int
	fig11Rates                      []float64
	cs4N                            int
	scaleRates                      []float64
	scaleConfigs                    int
	saturationRates                 []float64 // nil: the study's defaults
	saturationConfigs, churnConfigs int
	// cs4FullN is the transform length of the accuracy run.
	cs4FullN int
}

type suiteWorkload struct {
	sz suiteSizes
	// mape is the last pass's Table I error against the paper.
	mape float64
}

// study is one experiment: run returns its typed result and the tasks the
// result rows themselves report (0 where the rows carry no task count).
type study struct {
	name string
	run  func(sz suiteSizes, opt sweep.Options) (result any, tasks int64, err error)
}

var studies = []study{
	{"table1", func(_ suiteSizes, opt sweep.Options) (any, int64, error) {
		rows, err := experiments.TableI(opt)
		var tasks int64
		for _, r := range rows {
			tasks += int64(r.TaskCount)
		}
		return rows, tasks, err
	}},
	{"table2", func(suiteSizes, sweep.Options) (any, int64, error) {
		res, err := experiments.TableIIGen()
		return res, 0, err
	}},
	{"fig9", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Fig9(sz.fig9Iters, opt)
		return pts, 0, err
	}},
	{"fig10", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Fig10(sz.fig10Rows, opt)
		return pts, 0, err
	}},
	{"fig11", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Fig11(sz.fig11Rates, opt)
		return pts, 0, err
	}},
	{"cs4", func(sz suiteSizes, _ sweep.Options) (any, int64, error) {
		r, err := experiments.CS4(sz.cs4N, 0)
		if err == nil && !(r.BaselineCorrect && r.OptimisedCorrect) {
			err = fmt.Errorf("converted application output is wrong (baseline %v, optimised %v)", r.BaselineCorrect, r.OptimisedCorrect)
		}
		return r, 0, err
	}},
	{"scale", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Scale(sz.scaleRates, sz.scaleConfigs, opt)
		var tasks int64
		for _, p := range pts {
			tasks += int64(p.Tasks)
		}
		return pts, tasks, err
	}},
	{"saturation", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Saturation(sz.saturationRates, sz.saturationConfigs, opt)
		var tasks int64
		for _, p := range pts {
			tasks += int64(p.Tasks)
		}
		return pts, tasks, err
	}},
	{"churn", func(sz suiteSizes, opt sweep.Options) (any, int64, error) {
		pts, err := experiments.Churn(sz.churnConfigs, opt)
		return pts, 0, err
	}},
}

func (w *suiteWorkload) setup(tr *tracer, traced bool) error {
	// The warm-up is one pass at the smoke sizes: the studies build their
	// own inputs, so all there is to prepare are the process-wide program
	// cache, scratch pool and kernel tables that this fills.
	ps, err := (&suiteWorkload{sz: smokeSizes.suite}).pass(nil)
	if err == nil && ps.failed > 0 {
		err = fmt.Errorf("warm-up: %v", ps.notes)
	}
	return err
}

// pass runs the nine studies. tasks_per_s is taken over the studies whose
// rows report task counts (table1, scale, saturation) and their host time
// alone, so it stays a throughput and not tasks over unrelated work.
func (w *suiteWorkload) pass(tr *tracer) (passStats, error) {
	var ps passStats
	d := newDigest()
	opt := sweep.Options{Workers: 1}
	for _, s := range studies {
		ps.ops++
		var result any
		var tasks int64
		start := time.Now()
		err := tr.time("experiments."+s.name, func() (err error) {
			result, tasks, err = s.run(w.sz, opt)
			return err
		})
		if err != nil {
			ps.fail("%s: %v", s.name, err)
			continue
		}
		if tasks > 0 {
			ps.tasks += tasks
			ps.taskTime += time.Since(start)
		}
		d.str(s.name)
		d.value(reflect.ValueOf(result))
		if rows, ok := result.([]experiments.TableIRow); ok {
			w.mape = tableIMAPE(rows)
		}
	}
	ps.digest = d.sum()
	return ps, nil
}

// tableIMAPE is the mean |emulated - paper| / paper over the four
// applications of Table I, in percent.
func tableIMAPE(rows []experiments.TableIRow) float64 {
	var sum float64
	for _, r := range rows {
		paper := experiments.TableIPaper[r.App].ExecMS
		sum += math.Abs(r.ExecTime.Milliseconds()-paper) / paper
	}
	return sum / float64(len(rows)) * 100
}

func (w *suiteWorkload) check(*tracer) []string { return nil }
func (w *suiteWorkload) close() error           { return nil }

func (w *suiteWorkload) layers(tr *tracer, m map[string]float64) error {
	for _, s := range studies {
		m["experiments."+s.name+"_s"] = median(seconds64(tr.durations("experiments." + s.name)))
	}
	m["experiments.table1_mape_pct"] = w.mape

	// The conversion toolchain's stages, called directly on the program
	// cs4 converts, at the pass's transform length.
	n := w.sz.cs4N
	src := outliner.MonolithicRangeDetection(n, n/8)
	start := time.Now()
	mod, err := minic.Compile(src, "rd_monolithic")
	if err != nil {
		return err
	}
	m["minic.compile_ms"] = time.Since(start).Seconds() * 1e3
	start = time.Now()
	res, err := outliner.Convert(mod, outliner.Options{MaxSteps: 2_000_000_000})
	if err != nil {
		return err
	}
	convert := time.Since(start).Seconds()
	m["outliner.convert_s"] = convert
	m["tracer.dyn_instrs_per_s"] = float64(res.TotalDynInstrs) / convert
	start = time.Now()
	if _, _, err := outliner.GenerateSpec(res, outliner.SpecOptions{
		AppName: "rd_auto_opt", Registry: kernels.NewRegistry(), Recognize: true,
	}); err != nil {
		return err
	}
	m["outliner.genspec_ms"] = time.Since(start).Seconds() * 1e3

	// Accuracy at the paper's size: the larger relative error of the two
	// speed-ups against the paper's measured averages.
	start = time.Now()
	full, err := experiments.CS4(w.sz.cs4FullN, 0)
	if err != nil {
		return err
	}
	m["experiments.cs4_full_s"] = time.Since(start).Seconds()
	paper := experiments.CS4PaperSpeedups
	m["experiments.cs4_speedup_err_pct"] = 100 * math.Max(
		math.Abs(full.SpeedupOpt-paper.Opt)/paper.Opt,
		math.Abs(full.SpeedupAccel-paper.Accel)/paper.Accel)
	return nil
}
