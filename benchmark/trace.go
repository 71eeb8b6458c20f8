package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"time"
)

// The tracer is the benchmark's only instrument. It lives entirely on
// this side of the packages' exported APIs: coarse spans (set-up stage,
// pass, emulation, cell, POST, experiment) are kept individually with
// their parent, and high-frequency boundaries (one policy invocation, one
// sink record, one arrival, one kernel call) fold into a counter — a call
// count plus busy nanoseconds — the way SNIPPETS.md's PerfTimer does.
// Everything stays in memory until the run ends.
//
// A tracer is used by one goroutine: every workload drives its emulations
// with Workers: 1, where the sweep engine runs cells on the caller.

// span is one coarse interval. Parent is the ID of the span that was
// open when this one began, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// counter folds one high-frequency boundary.
type counter struct {
	N    int64         `json:"count"`
	Busy time.Duration `json:"busy_ns"`
}

func (c *counter) add(d time.Duration) {
	c.N++
	c.Busy += d
}

func (c *counter) seconds() float64 { return c.Busy.Seconds() }

// nsPer is the mean cost of one call, 0 before the first.
func (c *counter) nsPer() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.Busy) / float64(c.N)
}

// histogram holds durations in log-linear buckets (16 per power of two,
// so a quantile is exact to about 6%) at constant memory, which is what
// lets every one of millions of policy invocations be a sample.
type histogram struct {
	buckets [64 * 16]int64
	n       int64
}

func histBucket(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 5 // ns>>exp lies in [16, 32)
	return exp*16 + int(ns>>uint(exp))
}

func (h *histogram) add(d time.Duration) {
	h.buckets[histBucket(int64(d))]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the p-quantile.
func (h *histogram) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.n)))
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen >= rank {
			if b < 32 {
				return float64(b)
			}
			exp := b/16 - 1
			return float64(int64(b-exp*16) << uint(exp))
		}
	}
	return 0
}

// tracer accumulates one run's spans and counters.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs

	// The wrappers in wrap.go write these directly.
	policy      counter
	policyHist  histogram
	policyEmpty int64
	policyOps   int64
	assignments int64
	sink        counter
	source      counter
	kernels     counter
	fft         counter
	viterbi     counter
	cell        counter
	newMemory   counter
	check       counter
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything left open inside it) and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	for n := len(t.open); n > 0 && t.open[n-1] >= id; n-- {
		t.open = t.open[:n-1]
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// time runs f inside a span. A nil tracer just runs f: that is an
// untraced pass.
func (t *tracer) time(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, time.Duration(t.spans[i].EndNS-t.spans[i].StartNS))
		}
	}
	return out
}

// write dumps the trace as JSON (README.md, "Reading trace.json").
func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		Counters map[string]counter `json:"counters"`
	}{
		Workload: workload, Seed: seed, Spans: t.spans,
		Counters: map[string]counter{
			"sched.policy":     t.policy,
			"stats.sink":       t.sink,
			"workload.source":  t.source,
			"kernels.all":      t.kernels,
			"kernels.fft":      t.fft,
			"kernels.viterbi":  t.viterbi,
			"sweep.cell":       t.cell,
			"appmodel.memory":  t.newMemory,
			"apps.check":       t.check,
			"sched.empty":      {N: t.policyEmpty},
			"sched.assignment": {N: t.assignments},
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
