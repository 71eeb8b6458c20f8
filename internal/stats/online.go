package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// DefaultQuantiles are the steady-state percentiles the performance
// studies report (p50/p95/p99).
var DefaultQuantiles = []float64{0.50, 0.95, 0.99}

// Online is the streaming statistics sink: constant-memory aggregation
// of task wait times and application response times — count, mean and
// P² streaming quantile estimates. It is what makes saturation and
// long-horizon runs feasible: memory is O(tracked quantiles),
// independent of how many million tasks flow through.
//
// Warmup implements warm-up trimming: tasks that became ready, and
// applications that arrived, before the warm-up instant are excluded,
// so steady-state percentiles are not polluted by the cold start.
//
// The zero value is not ready for use; construct with NewOnline. An
// Online is single-run and cell-local: it has no synchronization, so
// one emulation run writes it and the goroutine that ran it reads it
// afterwards. Never share one across concurrent runs (repolint's
// singleuse flags the captures that would).
type Online struct {
	// Warmup is the trim instant; records originating before it are
	// dropped (0 keeps everything).
	Warmup vtime.Time

	// TasksSeen / AppsSeen count every record offered, including the
	// ones the warm-up trim drops, so totals stay available alongside
	// the trimmed steady-state statistics.
	TasksSeen int64
	AppsSeen  int64

	// Wait aggregates task wait times (ready → start) in nanoseconds.
	Wait Dist
	// Response aggregates application response times (arrival → done)
	// in nanoseconds.
	Response Dist
}

// NewOnline builds an online sink trimming records before warmup and
// tracking the given quantiles (DefaultQuantiles when none given).
// Probabilities must lie strictly inside (0, 1) — the P² markers are
// meaningless outside it — so an out-of-range probability is a
// programming error and panics.
func NewOnline(warmup vtime.Time, probs ...float64) *Online {
	if len(probs) == 0 {
		probs = DefaultQuantiles
	}
	for _, p := range probs {
		if !(p > 0 && p < 1) {
			panic(fmt.Sprintf("stats: quantile probability %v outside (0,1)", p))
		}
	}
	ps := append([]float64(nil), probs...)
	return &Online{
		Warmup:   warmup,
		Wait:     newDist(ps),
		Response: newDist(ps),
	}
}

// RecordTask implements Sink.
func (o *Online) RecordTask(r TaskRecord) {
	o.TasksSeen++
	if r.Ready < o.Warmup {
		return
	}
	o.Wait.Add(float64(r.WaitTime()))
}

// RecordApp implements Sink.
func (o *Online) RecordApp(r AppRecord) {
	o.AppsSeen++
	if r.Arrival < o.Warmup {
		return
	}
	o.Response.Add(float64(r.ResponseTime()))
}

// String renders a compact digest for logs and error messages.
func (o *Online) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online: %d tasks, %d apps", o.Wait.Count(), o.Response.Count())
	if o.Response.Count() > 0 {
		fmt.Fprintf(&b, "; response p50=%v p99=%v",
			vtime.Duration(o.Response.Quantile(0.50)), vtime.Duration(o.Response.Quantile(0.99)))
	}
	return b.String()
}

// --- online univariate distribution ------------------------------------------

// Dist is a constant-memory summary of one metric: count, mean and P²
// quantile estimates for a fixed probability set. NaN observations are
// ignored, so a single bad sample cannot poison the summary (compare
// BoxOf). The zero value accepts observations but tracks no quantiles.
type Dist struct {
	count int64
	sum   float64

	probs []float64
	// boot holds the first five observations (sorted lazily) used to
	// seed the P² markers and to answer exact quantiles while count<5.
	boot  [5]float64
	marks []p2
}

// newDist builds a distribution tracking the given quantile set; the
// probs slice is shared, not copied.
func newDist(probs []float64) Dist {
	return Dist{probs: probs, marks: make([]p2, len(probs))}
}

// Add accepts one observation; a NaN is ignored.
func (d *Dist) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	d.sum += x
	d.count++
	if d.marks == nil {
		return
	}
	if d.count <= 5 {
		d.boot[d.count-1] = x
		if d.count == 5 {
			sort.Float64s(d.boot[:])
			for i := range d.marks {
				d.marks[i].init(d.probs[i], d.boot)
			}
		}
		return
	}
	for i := range d.marks {
		d.marks[i].add(x)
	}
}

// Count is the number of accepted (non-NaN) observations.
func (d *Dist) Count() int64 { return d.count }

// Mean is the arithmetic mean of accepted observations (0 when empty).
func (d *Dist) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Quantile returns the P² estimate for one of the tracked
// probabilities. While fewer than five observations have arrived the
// answer is exact. Untracked probabilities (and an empty distribution)
// return NaN.
func (d *Dist) Quantile(p float64) float64 {
	if d.count == 0 || d.marks == nil {
		return math.NaN()
	}
	tracked := -1
	for i, dp := range d.probs {
		if dp == p {
			tracked = i
			break
		}
	}
	if tracked < 0 {
		return math.NaN()
	}
	if d.count < 5 {
		v := append([]float64(nil), d.boot[:d.count]...)
		sort.Float64s(v)
		return quantile(v, p)
	}
	return d.marks[tracked].value()
}

// --- P² single-quantile estimator --------------------------------------------

// p2 is the Jain & Chlamtac P² streaming estimator for one quantile:
// five markers whose heights approximate the quantile curve, adjusted
// by a parabolic (fallback linear) update per observation. Memory is
// five positions and five heights; the estimate error on stationary
// inputs is comparable to histogram methods with far larger state.
type p2 struct {
	q  [5]float64 // marker heights
	n  [5]int64   // actual marker positions (1-based observation ranks)
	np [5]float64 // desired marker positions
	dn [5]float64 // desired-position increments per observation
}

// init seeds the markers from the first five sorted observations.
func (m *p2) init(p float64, sorted [5]float64) {
	m.q = sorted
	m.n = [5]int64{1, 2, 3, 4, 5}
	m.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	m.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// add folds one observation into the marker state.
func (m *p2) add(x float64) {
	var k int
	switch {
	case x < m.q[0]:
		m.q[0] = x
		k = 0
	case x >= m.q[4]:
		m.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < m.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		m.n[i]++
	}
	for i := 1; i < 5; i++ {
		m.np[i] += m.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := m.np[i] - float64(m.n[i])
		if (d >= 1 && m.n[i+1]-m.n[i] > 1) || (d <= -1 && m.n[i-1]-m.n[i] < -1) {
			s := int64(1)
			if d < 0 {
				s = -1
			}
			if q := m.parabolic(i, s); m.q[i-1] < q && q < m.q[i+1] {
				m.q[i] = q
			} else {
				m.q[i] = m.linear(i, s)
			}
			m.n[i] += s
		}
	}
}

// parabolic is the piecewise-parabolic height adjustment.
func (m *p2) parabolic(i int, s int64) float64 {
	d := float64(s)
	return m.q[i] + d/float64(m.n[i+1]-m.n[i-1])*
		((float64(m.n[i]-m.n[i-1])+d)*(m.q[i+1]-m.q[i])/float64(m.n[i+1]-m.n[i])+
			(float64(m.n[i+1]-m.n[i])-d)*(m.q[i]-m.q[i-1])/float64(m.n[i]-m.n[i-1]))
}

// linear is the fallback adjustment when the parabola overshoots a
// neighbouring marker.
func (m *p2) linear(i int, s int64) float64 {
	return m.q[i] + float64(s)*(m.q[i+int(s)]-m.q[i])/float64(m.n[i+int(s)]-m.n[i])
}

// value is the current quantile estimate: the centre marker's height.
func (m *p2) value() float64 { return m.q[2] }
