package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vtime"
)

// viewFor builds a View in the state the emulator would maintain for
// the given fakes: busy PEs marked, availability and load mirrored,
// ready tasks pushed with their compiled metadata (View.MetaFor is the
// in-package equivalent of core.Compile's class-based lowering).
func viewFor(t testing.TB, fakes []*fakePE, tasks []Task) *View {
	t.Helper()
	pes := make([]PE, len(fakes))
	for i, f := range fakes {
		pes[i] = f
	}
	v := NewView(pes)
	if v == nil {
		t.Fatal("NewView failed for an eligible configuration")
	}
	for i, f := range fakes {
		if !f.idle {
			v.MarkBusy(i)
			v.AddLoad(i, 1)
		}
		v.SetAvail(i, f.avail)
		v.AddLoad(i, f.queued)
	}
	for _, tk := range tasks {
		m := v.MetaFor(tk.Choices())
		v.PushReady(tk, &m)
	}
	return v
}

// randomScenario draws an emulator-consistent scheduling state: idle
// PEs have empty queues and availability at or below now (a collected
// completion), busy PEs complete strictly after now — the invariants
// the workload-manager loop guarantees at every Schedule invocation.
// With uniform=true, PEs of one type share speed and power, so type
// and cost class coincide (the ZCU102/Synthetic shape); otherwise
// per-PE values diverge and the view interns up to one cost class per
// PE — the big.LITTLE shape taken to its extreme, exercising the
// EFT-family class decomposition with no fallback to hide behind.
func randomScenario(rng *rand.Rand, now vtime.Time, uniform bool) ([]*fakePE, []Task) {
	nPE := 1 + rng.Intn(12)
	fakes := make([]*fakePE, nPE)
	speeds := map[string]float64{"cpu": 1 + rng.Float64(), "fft": 0.5 + rng.Float64()}
	powers := map[string]float64{"cpu": 0.8, "fft": 0.3}
	for i := range fakes {
		var pe *fakePE
		if rng.Intn(3) == 0 {
			pe = idleFFT(i)
		} else {
			pe = idleCPU(i)
		}
		pe.speed = speeds[pe.key]
		pe.power = powers[pe.key]
		if !uniform {
			pe.speed = 0.5 + rng.Float64()
			pe.power = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			pe.idle = true
			pe.queued = 0
			pe.avail = now - vtime.Time(rng.Intn(500))
		} else {
			pe.idle = false
			pe.queued = rng.Intn(3)
			pe.avail = now + 1 + vtime.Time(rng.Intn(2000))
		}
		fakes[i] = pe
	}
	nTasks := rng.Intn(10)
	tasks := make([]Task, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		switch rng.Intn(4) {
		case 0:
			tasks = append(tasks, cpuTask("t", int64(rng.Intn(1000)+1)))
		case 1:
			tasks = append(tasks, &fakeTask{label: "f", choices: []PlatformChoice{
				{Key: "fft", TypeID: typeID("fft"), CostNS: int64(rng.Intn(1000) + 1)},
			}})
		case 2:
			// A choice on a platform absent from the configuration
			// (TypeID -1): MET may elect it and wait forever, FRFS must
			// skip it.
			tasks = append(tasks, &fakeTask{label: "g", choices: []PlatformChoice{
				{Key: "gpu", TypeID: -1, CostNS: int64(rng.Intn(100) + 1)},
				{Key: "cpu", TypeID: typeID("cpu"), CostNS: int64(rng.Intn(1000) + 1)},
			}})
		default:
			tasks = append(tasks, dualTask("d", int64(rng.Intn(1000)+1), int64(rng.Intn(1000)+1)))
		}
	}
	return fakes, tasks
}

// requireSameResult fails unless the indexed result equals the slice
// one: same Ops, same assignments in the same order.
func requireSameResult(t *testing.T, id string, slice, indexed Result) {
	t.Helper()
	if slice.Ops != indexed.Ops {
		t.Fatalf("%s: ops diverged: slice %d, indexed %d", id, slice.Ops, indexed.Ops)
	}
	if !slices.Equal(slice.Assignments, indexed.Assignments) {
		t.Fatalf("%s: batch diverged: slice %v, indexed %v", id, slice.Assignments, indexed.Assignments)
	}
}

// TestIndexedMatchesSlicePolicies is the policy-level half of the
// byte-determinism contract: for every built-in policy over random
// emulator-consistent states, ScheduleIndexed must return the same
// assignments in the same order and charge the same Ops as Schedule.
func TestIndexedMatchesSlicePolicies(t *testing.T) {
	now := vtime.Time(10_000)
	for _, name := range Names() {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 400; trial++ {
			fakes, tasks := randomScenario(rng, now, trial%4 != 0)
			seed := int64(trial)
			pSlice, err := New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			pIdx, err := New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			ip, ok := pIdx.(IndexedPolicy)
			if !ok {
				t.Fatalf("built-in policy %s lacks an indexed fast path", name)
			}
			pes := make([]PE, len(fakes))
			for i, f := range fakes {
				pes[i] = f
			}
			want := pSlice.Schedule(now, tasks, pes)
			v := viewFor(t, fakes, tasks)
			got := ip.ScheduleIndexed(now, v)
			requireSameResult(t, fmt.Sprintf("%s trial %d", name, trial), want, got)
		}
	}
}

// TestSliceOnlyHidesFastPath pins the differential-test lever: the
// wrapper must not satisfy IndexedPolicy, must delegate scheduling,
// and must forward Reset to stateful policies.
func TestSliceOnlyHidesFastPath(t *testing.T) {
	w := SliceOnly(FRFS{})
	if _, ok := w.(IndexedPolicy); ok {
		t.Fatal("SliceOnly still exposes ScheduleIndexed")
	}
	if w.Name() != "frfs" || w.UsesQueues() {
		t.Fatal("SliceOnly changed the policy surface")
	}
	r := NewRandom(3)
	wr := SliceOnly(r)
	pes := asPEs(idleCPU(0), idleCPU(1), idleCPU(2))
	tasks := asTasks(dualTask("a", 1, 1), dualTask("b", 1, 1))
	first := wr.Schedule(0, tasks, pes)
	wr.(Resettable).Reset()
	second := wr.Schedule(0, tasks, pes)
	for i := range first.Assignments {
		if first.Assignments[i] != second.Assignments[i] {
			t.Fatal("SliceOnly did not forward Reset to the seeded policy")
		}
	}
}

// TestViewCompactReadySemantics drives the head-offset deque through
// random push/consume batches and checks the surviving window against
// a naive filtered slice — prefix consumption, scattered holes, the
// slide-down reclamation and full drains all included.
func TestViewCompactReadySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pes := asPEs(idleCPU(0), idleFFT(1))
	v := NewView(pes)
	var ref []Task
	next := 0
	for round := 0; round < 500; round++ {
		for n := rng.Intn(6); n > 0; n-- {
			var tk *fakeTask
			if next%2 == 0 {
				tk = cpuTask("t", int64(next+1))
			} else {
				tk = dualTask("t", int64(next+1), int64(next+2))
			}
			next++
			m := v.MetaFor(tk.Choices())
			v.PushReady(tk, &m)
			ref = append(ref, tk)
		}
		remove := make([]bool, len(ref))
		mode := rng.Intn(3)
		for i := range remove {
			switch mode {
			case 0: // prefix
				remove[i] = i < rng.Intn(len(remove)+1)
			default: // scattered
				remove[i] = rng.Intn(4) == 0
			}
		}
		nRemoved := 0
		for _, r := range remove {
			if r {
				nRemoved++
			}
		}
		v.CompactReady(remove, nRemoved)
		kept := ref[:0]
		for i, tk := range ref {
			if !remove[i] {
				kept = append(kept, tk)
			}
		}
		ref = kept
		win := v.Ready()
		if len(win) != len(ref) {
			t.Fatalf("round %d: window length %d, want %d", round, len(win), len(ref))
		}
		for i := range ref {
			if win[i] != ref[i] {
				t.Fatalf("round %d: window[%d] diverged", round, i)
			}
			if int(v.metas()[i].NumChoices) != len(win[i].Choices()) {
				t.Fatalf("round %d: meta misaligned with task at %d", round, i)
			}
		}
	}
}

// settableTypePE is a fake whose TypeID can be set directly.
type settableTypePE struct {
	fakePE
	typeID int
}

func (p *settableTypePE) TypeID() int { return p.typeID }

// speedClassedPEs builds n same-type "cpu" PEs with n distinct speeds —
// n cost classes under one interned type, the big.LITTLE shape pushed
// to the representation boundary.
func speedClassedPEs(n int) []PE {
	pes := make([]PE, n)
	for i := range pes {
		pe := idleCPU(i)
		pe.speed = 1 + float64(i)/100
		pes[i] = pe
	}
	return pes
}

// TestNewViewClassBoundary pins the representation boundary: 64
// interned cost classes are Indexed (even under a single type key); the
// 65th is accepted — the per-class tables just grow — but the view stops
// being Indexed, so its owner hands policies the slice views. A negative
// TypeID and an empty table still yield no view; a TypeID beyond 63 is
// fine as long as the class count fits — masks are per class, not per
// type.
func TestNewViewClassBoundary(t *testing.T) {
	v := NewView(speedClassedPEs(64))
	if v == nil {
		t.Fatal("NewView rejected 64 cost classes")
	}
	if v.NumClasses() != 64 || !v.Indexed() {
		t.Fatalf("interned %d classes (indexed %v), want 64 indexed", v.NumClasses(), v.Indexed())
	}
	v65 := NewView(speedClassedPEs(65))
	if v65 == nil {
		t.Fatal("NewView rejected a 65th cost class")
	}
	if v65.NumClasses() != 65 || v65.Indexed() {
		t.Fatalf("interned %d classes (indexed %v), want 65 not indexed", v65.NumClasses(), v65.Indexed())
	}
	if v65.ClassOf(64) != 64 || v65.IdleCount() != 65 {
		t.Fatalf("65th PE filed under class %d, %d idle", v65.ClassOf(64), v65.IdleCount())
	}
	neg := &settableTypePE{fakePE: *idleCPU(0), typeID: -1}
	if NewView([]PE{neg}) != nil {
		t.Fatal("NewView accepted a negative TypeID")
	}
	if NewView(nil) != nil {
		t.Fatal("NewView accepted an empty PE table")
	}
	high := &settableTypePE{fakePE: *idleCPU(0), typeID: 64}
	hv := NewView([]PE{high})
	if hv == nil || hv.NumClasses() != 1 {
		t.Fatal("NewView rejected a high TypeID that interns into one class")
	}
}

// TestIndexedParityAtClassBoundary runs the policy parity check on a
// 64-class single-type pool — every mask word boundary in play — so
// the exactly-representable edge is covered by the same byte-level
// contract as the everyday shapes.
func TestIndexedParityAtClassBoundary(t *testing.T) {
	now := vtime.Time(5_000)
	rng := rand.New(rand.NewSource(7))
	fakes := make([]*fakePE, 64)
	for i := range fakes {
		pe := idleCPU(i)
		pe.speed = 1 + float64(i)/100
		pe.power = 0.5 + float64(i%7)/10
		if rng.Intn(3) == 0 {
			pe.idle = false
			pe.queued = rng.Intn(3)
			pe.avail = now + 1 + vtime.Time(rng.Intn(2000))
		}
		fakes[i] = pe
	}
	var tasks []Task
	for i := 0; i < 40; i++ {
		tasks = append(tasks, cpuTask("t", int64(rng.Intn(1000)+1)))
	}
	for _, name := range Names() {
		pSlice, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		pIdx, _ := New(name, 3)
		pes := make([]PE, len(fakes))
		for i, f := range fakes {
			pes[i] = f
		}
		want := pSlice.Schedule(now, tasks, pes)
		v := viewFor(t, fakes, tasks)
		if v.NumClasses() != 64 {
			t.Fatalf("boundary scenario interned %d classes, want 64", v.NumClasses())
		}
		got := pIdx.(IndexedPolicy).ScheduleIndexed(now, v)
		requireSameResult(t, name+" at the 64-class boundary", want, got)
	}
}

// TestViewMarksAreIdempotent guards the maintenance API against double
// transitions (dispatch-from-queue marks an already busy PE busy).
func TestViewMarksAreIdempotent(t *testing.T) {
	pes := asPEs(idleCPU(0), idleFFT(1))
	v := NewView(pes)
	if v.IdleCount() != 2 {
		t.Fatalf("fresh view has %d idle", v.IdleCount())
	}
	v.MarkBusy(0)
	v.MarkBusy(0)
	if v.IdleCount() != 1 {
		t.Fatalf("idempotent MarkBusy broke the count: %d", v.IdleCount())
	}
	v.MarkIdle(0)
	v.MarkIdle(0)
	if v.IdleCount() != 2 {
		t.Fatalf("idempotent MarkIdle broke the count: %d", v.IdleCount())
	}
	v.Reset()
	if v.IdleCount() != 2 || v.ReadyLen() != 0 {
		t.Fatal("Reset did not restore the all-idle empty state")
	}
}
