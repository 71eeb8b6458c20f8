package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vtime"
)

// The saturated regime: ready windows thousands deep over a handful of
// PEs. The indexed policies leave their loops at the first point where
// nothing more can be placed and charge the unwalked tail in closed
// form, so this file pins that exit — assignments and Ops — against the
// slice definitions on exactly the shapes where it fires, and pins the
// ready deque's two-ended compaction and its per-mask census against a
// reference filter and a recount.

// faultedPE is a fake that reports itself offline: never idle, never a
// candidate, still counted by the P-proportional charges.
type faultedPE struct{ fakePE }

func (*faultedPE) Faulted() bool { return true }

// satBoard is one PE table shape: per PE its type key, speed and power.
type satBoard struct {
	name string
	pes  []fakePE
}

func satBoards() []satBoard {
	rep := func(n int, pe fakePE) []fakePE {
		out := make([]fakePE, n)
		for i := range out {
			out[i] = pe
		}
		return out
	}
	big := fakePE{key: "cpu", speed: 0.5, power: 1.6}
	little := fakePE{key: "cpu", speed: 1.4, power: 0.35}
	a53 := fakePE{key: "cpu", speed: 1, power: 0.8}
	fft := fakePE{key: "fft", speed: 1, power: 0.3}
	return []satBoard{
		{"odroid-4B+3L", append(rep(4, big), rep(3, little)...)},
		{"zcu102-3C+2F", append(rep(3, a53), rep(2, fft)...)},
		{"het-4B+3L+2F", append(append(rep(4, big), rep(3, little)...), rep(2, fft)...)},
	}
}

// Idle-set shapes.
const (
	idleNone        = iota
	idleOne         // one PE the ready tasks can use
	idleUnsupported // only PEs of a type no ready task supports
	idleAll
	numIdleModes
)

// Window variants.
const (
	varPlain       = iota
	varFaulted     // the last PE's whole class is emptied by FaultPE
	varUnplaceable // zero and foreign ClassMasks interleaved: EFT's linear tail
	numVariants
)

// satScenario builds the slice-path state (pes, tasks) and the
// equivalent View for one grid point.
func satScenario(t *testing.T, b satBoard, window, idleMode, variant int, now vtime.Time, rng *rand.Rand) ([]PE, []Task, *View) {
	t.Helper()
	last := b.pes[len(b.pes)-1]
	// idleUnsupported idles the last type's PEs and offers only tasks
	// that cannot run there (on the all-cpu Odroid: tasks no PE runs).
	taskKeys := []string{"cpu", "fft"}
	if idleMode == idleUnsupported && last.key == "cpu" {
		taskKeys = []string{"fft"}
	} else if idleMode == idleUnsupported {
		taskKeys = []string{"cpu"}
	}
	fakes := make([]*fakePE, len(b.pes))
	pes := make([]PE, len(b.pes))
	faulted := make([]bool, len(b.pes))
	usableGiven := false
	for i := range b.pes {
		pe := b.pes[i]
		pe.id = i
		switch idleMode {
		case idleAll:
			pe.idle = true
		case idleOne:
			pe.idle = !usableGiven && pe.key == "cpu" && i >= len(b.pes)/2
			usableGiven = usableGiven || pe.idle
		case idleUnsupported:
			pe.idle = pe.key == last.key
		}
		if pe.idle {
			pe.avail = now - vtime.Time(rng.Intn(500))
		} else {
			pe.queued = rng.Intn(3)
			pe.avail = now + 1 + vtime.Time(rng.Intn(2000))
		}
		fakes[i], pes[i] = &pe, &pe
		if variant == varFaulted && pe.key == last.key && pe.speed == last.speed {
			faulted[i] = true
			pe.idle, pe.queued, pe.avail = false, 0, 0
			pes[i] = &faultedPE{pe}
		}
	}
	tasks := make([]Task, window)
	for i := range tasks {
		cost := int64(rng.Intn(1000) + 1)
		switch key := taskKeys[rng.Intn(len(taskKeys))]; {
		case variant == varUnplaceable && i%3 == 1:
			tasks[i] = &fakeTask{label: "g", choices: []PlatformChoice{{Key: "gpu", TypeID: -1, CostNS: cost}}}
		case len(taskKeys) == 2 && rng.Intn(3) == 0:
			tasks[i] = dualTask("d", cost, int64(rng.Intn(1000)+1))
		default:
			tasks[i] = &fakeTask{label: key, choices: []PlatformChoice{{Key: key, TypeID: typeID(key), CostNS: cost}}}
		}
	}
	v := viewFor(t, fakes, nil)
	for i, f := range faulted {
		if f {
			v.FaultPE(i)
		}
	}
	for i, tk := range tasks {
		m := v.MetaFor(tk.Choices())
		if variant == varUnplaceable && i%6 == 1 {
			// A foreign mask: bits for classes this view never interned.
			m.ClassMask = 1<<40 | 1<<63
		}
		v.PushReady(tk, &m)
	}
	return pes, tasks, v
}

// TestIndexedMatchesSliceSaturated is TestIndexedMatchesSlicePolicies
// on the shapes the saturation exit is built for: every policy × three
// boards × window lengths around the rescan divisor and far past it ×
// idle sets from none to all × a faulted-out class and unplaceable
// tasks, which between them take every branch of the tail charge.
func TestIndexedMatchesSliceSaturated(t *testing.T) {
	now := vtime.Time(10_000)
	linearTails, closedTails := 0, 0
	for _, b := range satBoards() {
		for _, window := range []int{0, 1, 31, 32, 33, 1000, 8192} {
			for idleMode := 0; idleMode < numIdleModes; idleMode++ {
				for variant := 0; variant < numVariants; variant++ {
					for _, name := range Names() {
						id := fmt.Sprintf("%s/%s/window=%d/idle=%d/variant=%d", name, b.name, window, idleMode, variant)
						seed := int64(window*100 + idleMode*10 + variant)
						pes, tasks, v := satScenario(t, b, window, idleMode, variant, now, rand.New(rand.NewSource(seed)))
						if err := v.Check(); err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if window > 0 && name == "eft" {
							if v.windowMeeting(v.liveClasses()) == window {
								closedTails++
							} else {
								linearTails++
							}
						}
						pSlice, _ := New(name, seed)
						pIdx, _ := New(name, seed)
						want := pSlice.Schedule(now, tasks, pes)
						got := pIdx.(IndexedPolicy).ScheduleIndexed(now, v)
						requireSameResult(t, id, want, got)
					}
				}
			}
		}
	}
	if linearTails == 0 || closedTails == 0 {
		t.Fatalf("grid took EFT's linear tail %d times and its closed form %d times; both must run", linearTails, closedTails)
	}
}

// TestRescanOpsMatchesLoop pins EFT's closed-form tail against the loop
// it replaces, and against the slice scan's own quadratic term.
func TestRescanOpsMatchesLoop(t *testing.T) {
	loop := func(placed, k int) int {
		sum := 0
		for j := 0; j < k; j++ {
			sum += (placed + j) / 32
		}
		return sum
	}
	for placed := 0; placed < 200; placed++ {
		for k := 0; k < 200; k++ {
			if got, want := rescanOps(placed+k)-rescanOps(placed), loop(placed, k); got != want {
				t.Fatalf("placed=%d k=%d: closed form %d, loop %d", placed, k, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		placed, k := rng.Intn(1<<20), rng.Intn(1<<16)
		if got, want := rescanOps(placed+k)-rescanOps(placed), loop(placed, k); got != want {
			t.Fatalf("placed=%d k=%d: closed form %d, loop %d", placed, k, got, want)
		}
	}
	// TestEFTOpsQuadraticInReady's scenario: every task is placeable, so
	// the slice scan charges P + n*eftPairWeight*P + the rescan sum.
	pes := asPEs(idleCPU(0), idleCPU(1))
	for _, n := range []int{100, 2000} {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = cpuTask("t", 5)
		}
		if got, want := (EFT{}).Schedule(0, tasks, pes).Ops, 2+n*eftPairWeight*2+rescanOps(n); got != want {
			t.Fatalf("n=%d: slice EFT charged %d, closed form says %d", n, got, want)
		}
	}
}

// TestCompactReadyProperty drives the deque through every removal
// shape against a reference filter: order preserved, both shift
// directions executed, and after every PushReady, CompactReady and
// Reset the View's own recount (Check: census, nil vacated slots)
// agrees.
func TestCompactReadyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v := NewView(asPEs(idleCPU(0), idleFFT(1)))
	var ref []Task
	check := func(when string) {
		t.Helper()
		if err := v.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		win := v.Ready()
		if len(win) != len(ref) {
			t.Fatalf("%s: window length %d, want %d", when, len(win), len(ref))
		}
		for i := range ref {
			if win[i] != ref[i] {
				t.Fatalf("%s: window[%d] diverged", when, i)
			}
		}
	}
	push := func(n int) {
		for ; n > 0; n-- {
			var tk *fakeTask
			switch rng.Intn(3) {
			case 0:
				tk = cpuTask("c", 1)
			case 1:
				tk = dualTask("d", 1, 2)
			default:
				tk = &fakeTask{label: "g", choices: []PlatformChoice{{Key: "gpu", TypeID: -1, CostNS: 1}}}
			}
			m := v.MetaFor(tk.Choices())
			v.PushReady(tk, &m)
			ref = append(ref, tk)
		}
		check("push")
	}
	// Mark shapes over a window of n entries.
	shapes := map[string]func(n int) []bool{
		"prefix": func(n int) []bool {
			r := make([]bool, n)
			for i := rng.Intn(n + 1); i > 0; i-- {
				r[i-1] = true
			}
			return r
		},
		"near-head": func(n int) []bool {
			r := make([]bool, n)
			for i := 0; i < n && i < 12; i++ {
				r[i] = rng.Intn(2) == 0
			}
			return r
		},
		"near-tail": func(n int) []bool {
			r := make([]bool, n)
			for i := max(0, n-12); i < n; i++ {
				r[i] = rng.Intn(2) == 0
			}
			return r
		},
		"mixed": func(n int) []bool {
			r := make([]bool, n)
			for i := range r {
				r[i] = rng.Intn(5) == 0
			}
			return r
		},
	}
	order := []string{"prefix", "near-head", "near-tail", "mixed"}
	ups, downs := 0, 0
	compact := func(shape string) []Task {
		remove := shapes[shape](len(ref))
		nRemoved, prefix := 0, 0
		var gone, kept []Task
		for i, r := range remove {
			if r {
				nRemoved++
				gone = append(gone, ref[i])
				if prefix == i {
					prefix++
				}
			} else {
				kept = append(kept, ref[i])
			}
		}
		head0, len0 := v.head, len(v.ready)
		v.CompactReady(remove, nRemoved)
		ref = kept
		check("compact " + shape)
		switch {
		case nRemoved == prefix || v.head == 0:
			// No hole beyond the prefix, or the backing was renormalised.
		case v.head > head0+prefix && len(v.ready) == len0:
			ups++
		case v.head == head0+prefix && len(v.ready) < len0:
			downs++
		default:
			t.Fatalf("compact %s: head %d->%d, backing length %d->%d: neither shift direction", shape, head0, v.head, len0, len(v.ready))
		}
		return gone
	}
	for round := 0; round < 400; round++ {
		push(rng.Intn(40))
		gone := compact(order[round%len(order)])
		switch round % 50 {
		case 17:
			// The fault-requeue shape: dispatched tasks come back at the
			// tail, in dispatch order.
			for _, tk := range gone {
				m := v.MetaFor(tk.Choices())
				v.PushReady(tk, &m)
				ref = append(ref, tk)
			}
			check("requeue")
		case 33:
			// A long prefix drives head past 64 and slides the backing.
			push(200)
			remove := make([]bool, len(ref))
			n := len(ref) * 3 / 4
			for i := 0; i < n; i++ {
				remove[i] = true
			}
			v.CompactReady(remove, n)
			ref = append([]Task(nil), ref[n:]...)
			check("slide")
			if v.head != 0 {
				t.Fatalf("dead prefix of %d not slid down: head=%d", n, v.head)
			}
		case 49:
			v.Reset()
			ref = nil
			check("reset")
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("compaction shifted up %d times and down %d times; both arms must run", ups, downs)
	}
}

// saturatedOdroid is the oversubscribed Fig 11 board as the scheduler
// sees it mid-run: 4 big + 3 LITTLE cores, one LITTLE idle, and a ready
// window of 8192 CPU tasks.
func saturatedOdroid(tb testing.TB) *View {
	b := satBoards()[0]
	fakes := make([]*fakePE, len(b.pes))
	for i := range b.pes {
		pe := b.pes[i]
		pe.id = i
		pe.idle = i == len(b.pes)-1
		if !pe.idle {
			pe.avail = vtime.Time(10_000 + 100*i)
		}
		fakes[i] = &pe
	}
	v := viewFor(tb, fakes, nil)
	tk := cpuTask("t", 700)
	m := v.MetaFor(tk.Choices())
	for i := 0; i < 8192; i++ {
		//repolint:allow metafreeze one record shared by every push on purpose, the way core pushes a node's compiled metadata; nothing writes it afterwards
		v.PushReady(tk, &m)
	}
	if err := v.Check(); err != nil {
		tb.Fatal(err)
	}
	return v
}

// eftSaturatedOp is one EFT invocation in the saturated regime: one
// placement, then the exit and the closed-form tail.
func eftSaturatedOp(tb testing.TB, v *View) {
	res := EFT{}.ScheduleIndexed(9_000, v)
	if len(res.Assignments) != 1 {
		tb.Fatalf("placed %d tasks, want 1", len(res.Assignments))
	}
	ReleaseResult(&res)
}

// compactNearHeadOp is the compaction that follows it — a few holes
// just past the head of the 8192-deep window, closed by shifting the
// short kept run up — plus the pushes that refill the window.
func compactNearHeadOp(v *View, remove []bool) {
	tk, m := v.Ready()[0], v.metas()[0]
	remove[1], remove[3], remove[4] = true, true, true
	v.CompactReady(remove, 3)
	remove[1], remove[3], remove[4] = false, false, false
	for i := 0; i < 3; i++ {
		v.PushReady(tk, m)
	}
}

// BenchmarkEFTIndexedSaturated: no term proportional to the window.
func BenchmarkEFTIndexedSaturated(b *testing.B) {
	v := saturatedOdroid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eftSaturatedOp(b, v)
	}
}

// BenchmarkCompactReadyNearHead: proportional to the holes' distance
// from the head (plus the amortised backing slide), not to the window.
func BenchmarkCompactReadyNearHead(b *testing.B) {
	v := saturatedOdroid(b)
	remove := make([]bool, v.ReadyLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compactNearHeadOp(v, remove)
	}
}

// TestSaturatedPathsDoNotAllocate gates both benchmarks' 0 allocs/op in
// the ordinary test run, past the backing array's growth and first
// slides.
func TestSaturatedPathsDoNotAllocate(t *testing.T) {
	v := saturatedOdroid(t)
	if n := testing.AllocsPerRun(100, func() { eftSaturatedOp(t, v) }); n != 0 {
		t.Errorf("saturated EFT.ScheduleIndexed: %v allocs/op, want 0", n)
	}
	remove := make([]bool, v.ReadyLen())
	for i := 0; i < 3*v.ReadyLen(); i++ {
		compactNearHeadOp(v, remove)
	}
	if n := testing.AllocsPerRun(1000, func() { compactNearHeadOp(v, remove) }); n != 0 {
		t.Errorf("near-head CompactReady + PushReady: %v allocs/op, want 0", n)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}
