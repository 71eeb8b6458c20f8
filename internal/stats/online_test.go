package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/vtime"
)

func TestDistBasics(t *testing.T) {
	d := newDist(DefaultQuantiles)
	for _, x := range []float64{4, 2, 8, 6, 10} {
		d.Add(x)
	}
	if d.Count() != 5 || d.Mean() != 6 {
		t.Fatalf("count=%d mean=%v", d.Count(), d.Mean())
	}
	// With exactly five observations the P² markers hold the sorted
	// sample, so the median is exact.
	if got := d.Quantile(0.50); got != 6 {
		t.Fatalf("median = %v", got)
	}
}

func TestDistSmallCountsExact(t *testing.T) {
	d := newDist(DefaultQuantiles)
	if !math.IsNaN(d.Quantile(0.50)) {
		t.Fatal("empty Dist should answer NaN")
	}
	d.Add(7)
	if got := d.Quantile(0.50); got != 7 {
		t.Fatalf("single-sample median = %v", got)
	}
	d.Add(1)
	if got := d.Quantile(0.50); got != 4 {
		t.Fatalf("two-sample median = %v (want interpolated 4)", got)
	}
}

func TestDistNaNGuard(t *testing.T) {
	d := newDist(DefaultQuantiles)
	d.Add(math.NaN())
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
		if i%10 == 0 {
			d.Add(math.NaN())
		}
	}
	if d.Count() != 100 || d.Mean() != 50.5 {
		t.Fatalf("count=%d mean=%v", d.Count(), d.Mean())
	}
	if got := d.Quantile(0.50); math.IsNaN(got) || got < 40 || got > 60 {
		t.Fatalf("median %v poisoned by NaN inputs", got)
	}
	for _, p := range DefaultQuantiles {
		if math.IsNaN(d.Quantile(p)) {
			t.Fatalf("p%.0f poisoned by NaN inputs", p*100)
		}
	}
}

func TestDistUntrackedQuantile(t *testing.T) {
	d := newDist([]float64{0.5})
	for i := 0; i < 10; i++ {
		d.Add(float64(i))
		// NaN for untracked probabilities at every count, including
		// the exact (<5 observation) regime.
		if !math.IsNaN(d.Quantile(0.25)) {
			t.Fatalf("untracked probability answered a value at count %d", i+1)
		}
	}
}

// TestP2AgainstExact drives the estimator with known distributions and
// checks the estimates against exact sorted quantiles.
func TestP2AgainstExact(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) float64
		tol  float64 // relative tolerance on the exact quantile spread
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() }, 0.05},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() }, 0.15},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return r.NormFloat64()
			}
			return 100 + r.NormFloat64()
		}, 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			d := newDist(DefaultQuantiles)
			var all []float64
			for i := 0; i < 20000; i++ {
				x := tc.gen(r)
				d.Add(x)
				all = append(all, x)
			}
			sort.Float64s(all)
			span := all[len(all)-1] - all[0]
			for _, p := range DefaultQuantiles {
				exact := quantile(all, p)
				got := d.Quantile(p)
				if diff := math.Abs(got - exact); diff > tc.tol*span {
					t.Errorf("p%.0f: estimate %v vs exact %v (diff %v, tol %v)",
						p*100, got, exact, diff, tc.tol*span)
				}
			}
		})
	}
}

// TestP2Deterministic: the estimator is a pure function of the input
// sequence, the property the workers=1 vs workers=8 parity rests on.
func TestP2Deterministic(t *testing.T) {
	run := func() float64 {
		r := rand.New(rand.NewSource(3))
		d := newDist(DefaultQuantiles)
		for i := 0; i < 5000; i++ {
			d.Add(r.ExpFloat64())
		}
		return d.Quantile(0.99)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same input sequence produced %v then %v", a, b)
	}
}

func TestDistDuplicateValues(t *testing.T) {
	d := newDist(DefaultQuantiles)
	for i := 0; i < 1000; i++ {
		d.Add(42)
	}
	for _, p := range DefaultQuantiles {
		if got := d.Quantile(p); got != 42 {
			t.Fatalf("p%.0f of constant stream = %v", p*100, got)
		}
	}
}

func TestNewOnlineRejectsBadProbs(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOnline accepted probability %v", p)
				}
			}()
			NewOnline(0, p)
		}()
	}
}

func TestOnlineSinkAggregation(t *testing.T) {
	o := NewOnline(0)
	o.RecordTask(TaskRecord{PEID: 0, Ready: 0, Start: 10, End: 110})
	o.RecordTask(TaskRecord{PEID: 1, Ready: 5, Start: 35, End: 85})
	o.RecordApp(AppRecord{Arrival: 0, Done: 500})
	if o.Wait.Count() != 2 || o.Wait.Mean() != 20 {
		t.Fatalf("wait: count=%d mean=%v", o.Wait.Count(), o.Wait.Mean())
	}
	if o.Response.Count() != 1 || o.Response.Mean() != 500 || o.Response.Quantile(0.99) != 500 {
		t.Fatalf("response: count=%d mean=%v p99=%v", o.Response.Count(), o.Response.Mean(), o.Response.Quantile(0.99))
	}
	if s := o.String(); !strings.Contains(s, "2 tasks") {
		t.Fatalf("String() = %q", s)
	}
}

func TestOnlineWarmupTrim(t *testing.T) {
	o := NewOnline(vtime.Time(100))
	o.RecordTask(TaskRecord{PEID: 0, Ready: 99, Start: 120, End: 130}) // pre-warmup
	o.RecordTask(TaskRecord{PEID: 0, Ready: 100, Start: 120, End: 130})
	o.RecordApp(AppRecord{Arrival: 0, Done: 400}) // pre-warmup
	o.RecordApp(AppRecord{Arrival: 150, Done: 400})
	if o.Wait.Count() != 1 {
		t.Fatalf("warmup trim kept %d tasks", o.Wait.Count())
	}
	if o.Response.Count() != 1 {
		t.Fatalf("warmup trim kept %d apps", o.Response.Count())
	}
}

func TestFullReportSink(t *testing.T) {
	var f FullReport
	f.RecordTask(TaskRecord{App: "a"})
	f.RecordApp(AppRecord{App: "a"})
	f.RecordTask(TaskRecord{App: "b"})
	if len(f.Tasks) != 2 || len(f.Apps) != 1 {
		t.Fatalf("FullReport kept %d/%d records", len(f.Tasks), len(f.Apps))
	}
	Discard{}.RecordTask(TaskRecord{})
	Discard{}.RecordApp(AppRecord{})
}

// TestOnlineAddAllocs pins the hot-path property the emulator's
// steady-state allocation bound depends on: RecordTask and RecordApp
// allocate nothing, whatever PE a record names.
func TestOnlineAddAllocs(t *testing.T) {
	o := NewOnline(0)
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		o.RecordTask(TaskRecord{PEID: int(i*7919) % 4096, Ready: vtime.Time(i), Start: vtime.Time(i + 1), End: vtime.Time(i + 3)})
		o.RecordApp(AppRecord{Arrival: vtime.Time(i), Done: vtime.Time(i + 10)})
	})
	if avg != 0 {
		t.Fatalf("steady-state RecordTask/RecordApp allocate %.1f objects", avg)
	}
}

// BenchmarkOnlineRecordTask is the sink layer's number: host ns per
// task record folded into an Online, over a ring of seeded records
// with exponential waits spread across 16 PEs.
func BenchmarkOnlineRecordTask(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	recs := make([]TaskRecord, 4096)
	for i := range recs {
		ready := vtime.Time(int64(i) * 1000)
		start := ready + vtime.Time(r.ExpFloat64()*2000)
		recs[i] = TaskRecord{PEID: r.Intn(16), Ready: ready, Start: start, End: start + vtime.Time(1+r.Int63n(5000))}
	}
	o := NewOnline(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RecordTask(recs[i&(len(recs)-1)])
	}
}
