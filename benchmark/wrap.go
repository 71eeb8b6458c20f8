package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The timing wrappers stand between the emulation core and the layer it
// calls — policy, sink, arrival source, kernel — forward every call
// unchanged, and charge its host time to a tracer counter. They must be
// invisible to the simulation: wrap_test.go holds a wrapped run's Report
// deep-equal to the bare run's, on the indexed scheduler path.

// timedPolicy forwards to a built-in policy. It offers every optional
// interface the core probes for (IndexedPolicy, Resettable, PowerCapped)
// and passes each through only as far as the inner policy implements it,
// which is how sched.SliceOnly forwards too.
type timedPolicy struct {
	inner   sched.Policy
	indexed sched.IndexedPolicy
	tr      *tracer
}

// wrapPolicy refuses a policy without an indexed fast path: the wrapper
// would advertise one it cannot deliver.
func (t *tracer) wrapPolicy(p sched.Policy) (sched.Policy, error) {
	ip, ok := p.(sched.IndexedPolicy)
	if !ok {
		return nil, fmt.Errorf("benchmark: policy %s has no indexed path to wrap", p.Name())
	}
	return &timedPolicy{inner: p, indexed: ip, tr: t}, nil
}

func (p *timedPolicy) Name() string     { return p.inner.Name() }
func (p *timedPolicy) UsesQueues() bool { return p.inner.UsesQueues() }

func (p *timedPolicy) observe(start time.Time, res *sched.Result) {
	d := time.Since(start)
	p.tr.policy.add(d)
	p.tr.policyHist.add(d)
	p.tr.policyOps += int64(res.Ops)
	p.tr.assignments += int64(len(res.Assignments))
	if len(res.Assignments) == 0 {
		p.tr.policyEmpty++
	}
}

func (p *timedPolicy) Schedule(now vtime.Time, ready []sched.Task, pes []sched.PE) sched.Result {
	start := time.Now()
	res := p.inner.Schedule(now, ready, pes)
	p.observe(start, &res)
	return res
}

func (p *timedPolicy) ScheduleIndexed(now vtime.Time, v *sched.View) sched.Result {
	start := time.Now()
	res := p.indexed.ScheduleIndexed(now, v)
	p.observe(start, &res)
	return res
}

func (p *timedPolicy) Reset() {
	if r, ok := p.inner.(sched.Resettable); ok {
		r.Reset()
	}
}

func (p *timedPolicy) SetPowerCap(watts float64) {
	if pc, ok := p.inner.(sched.PowerCapped); ok {
		pc.SetPowerCap(watts)
	}
}

// timedSink charges RecordTask and RecordApp to the sink counter.
type timedSink struct {
	inner stats.Sink
	c     *counter
}

func (t *tracer) wrapSink(s stats.Sink) stats.Sink { return &timedSink{inner: s, c: &t.sink} }

func (s *timedSink) RecordTask(r stats.TaskRecord) {
	start := time.Now()
	s.inner.RecordTask(r)
	s.c.add(time.Since(start))
}

func (s *timedSink) RecordApp(r stats.AppRecord) {
	start := time.Now()
	s.inner.RecordApp(r)
	s.c.add(time.Since(start))
}

// timedSource charges Next to the source counter. The exhausted call is
// charged too; it is work the loop waits for.
type timedSource struct {
	inner core.ArrivalSource
	c     *counter
}

func (t *tracer) wrapSource(s core.ArrivalSource) core.ArrivalSource {
	return &timedSource{inner: s, c: &t.source}
}

func (s *timedSource) Next() (core.Arrival, bool) {
	start := time.Now()
	a, ok := s.inner.Next()
	s.c.add(time.Since(start))
	return a, ok
}

// wrapRegistry builds a second registry holding every symbol of reg, each
// entry wrapping the original with a timer. Application specs resolve
// against it exactly as against reg; FFT and Viterbi entries (by runfunc
// name: *fft* but not *fft_shift*, *decode*) are also charged to their
// own counters.
func (t *tracer) wrapRegistry(reg *kernels.Registry) (*kernels.Registry, error) {
	out := kernels.NewRegistry()
	for _, sym := range reg.Symbols() {
		so, name, ok := strings.Cut(sym, "/")
		if !ok {
			return nil, fmt.Errorf("benchmark: registry symbol %q has no shared object", sym)
		}
		f, err := reg.Lookup(so, name)
		if err != nil {
			return nil, err
		}
		var kind *counter
		switch lower := strings.ToLower(name); {
		case strings.Contains(lower, "fft") && !strings.Contains(lower, "shift"):
			kind = &t.fft
		case strings.Contains(lower, "decode"):
			kind = &t.viterbi
		}
		all := &t.kernels
		wrapped := func(ctx *kernels.Context) error {
			start := time.Now()
			err := f(ctx)
			d := time.Since(start)
			all.add(d)
			if kind != nil {
				kind.add(d)
			}
			return err
		}
		if err := out.Register(so, name, wrapped); err != nil {
			return nil, err
		}
	}
	return out, nil
}
