package sched

import (
	"math/rand"
	"testing"
)

// Dynamic-platform coverage of the View maintenance API: fault and
// restore transitions, DVFS re-classing, class interning at the
// representation ceiling, and the ready-deque compaction patterns a PE
// death produces (requeues interleaved with completions, and the
// dead-prefix slide once requeue churn pushes the head past the live
// window).

// TestViewFaultRestore pins the fault transition's full effect: the PE
// leaves the idle index and its class-membership bitmap atomically
// (so class enumerations skip it), its counters are zeroed, and the
// restore returns it idle with a clean slate. Both directions are
// idempotent.
func TestViewFaultRestore(t *testing.T) {
	v := NewView(asPEs(idleCPU(0), idleCPU(1), idleFFT(2)))
	v.SetAvail(1, 500)
	v.AddLoad(1, 2)
	v.MarkBusy(1)

	v.FaultPE(1)
	v.FaultPE(1)
	if !v.Faulted(1) || v.Faulted(0) {
		t.Fatalf("fault status wrong: pe1=%v pe0=%v", v.Faulted(1), v.Faulted(0))
	}
	if v.IdleCount() != 2 {
		t.Fatalf("idle count after faulting a busy PE: %d, want 2", v.IdleCount())
	}
	if v.avail[1] != 0 || v.load[1] != 0 {
		t.Fatalf("faulted PE kept counters: avail=%v load=%d", v.avail[1], v.load[1])
	}
	// Membership withdrawal: the idle scan over pe1's class must not
	// surface it even though pe0 of the same class is idle.
	v.beginIdleScratch()
	if pi := v.minIdleOfClass(v.ClassOf(1)); pi != 0 {
		t.Fatalf("idle scan of the faulted PE's class found %d, want 0", pi)
	}
	// Faulting an idle PE shrinks the idle pool; double restore is a
	// no-op on healthy PEs.
	v.FaultPE(2)
	if v.IdleCount() != 1 {
		t.Fatalf("idle count after faulting an idle PE: %d, want 1", v.IdleCount())
	}
	v.RestorePE(2)
	v.RestorePE(2)
	v.RestorePE(0) // healthy: no-op
	if v.IdleCount() != 2 || v.Faulted(2) {
		t.Fatalf("restore wrong: idle=%d faulted2=%v", v.IdleCount(), v.Faulted(2))
	}
	v.RestorePE(1)
	if v.IdleCount() != 3 {
		t.Fatalf("restored busy-faulted PE not idle: %d", v.IdleCount())
	}
	v.beginIdleScratch()
	if pi := v.minIdleOfClass(v.ClassOf(1)); pi != 0 {
		t.Fatalf("post-restore idle scan found %d, want 0", pi)
	}
}

// TestViewSetClassOnFaultedPE pins the DVFS-during-fault interaction:
// re-classing a faulted PE moves its class index without resurrecting
// a membership bit, and the restore files it under the new class.
func TestViewSetClassOnFaultedPE(t *testing.T) {
	v := NewView(asPEs(idleCPU(0), idleCPU(1)))
	ci := v.InternClass(int32(typeID("cpu")), 0.5, 1)
	if ci < 0 {
		t.Fatal("interning a DVFS signature failed")
	}
	v.FaultPE(1)
	v.SetClass(1, ci)
	if v.ClassOf(1) != ci {
		t.Fatalf("faulted PE not re-classed: %d", v.ClassOf(1))
	}
	v.beginIdleScratch()
	if pi := v.minIdleOfClass(ci); pi != -1 {
		t.Fatalf("faulted PE visible in its new class: %d", pi)
	}
	v.RestorePE(1)
	v.beginIdleScratch()
	if pi := v.minIdleOfClass(ci); pi != 1 {
		t.Fatalf("restored PE not filed under the new class: %d", pi)
	}
	// Idle-count bookkeeping moved with it.
	if v.idleCnt[ci] != 1 || v.idleCnt[v.ClassOf(0)] != 1 {
		t.Fatalf("idle counts wrong after re-class: %v", v.idleCnt)
	}
}

// TestInternClassCeiling pins the 64/65 boundary of runtime interning:
// a 63-class view interns a 64th signature and stays Indexed, the 65th
// gets index 64 and ends Indexed, interned classes are deduplicated, and
// Reset keeps them (and the lost Indexed) while restoring
// construction-time membership and clearing faults.
func TestInternClassCeiling(t *testing.T) {
	v := NewView(speedClassedPEs(63))
	if v == nil || v.NumClasses() != 63 {
		t.Fatal("63-class construction failed")
	}
	c64 := v.InternClass(int32(typeID("cpu")), 99, 99)
	if c64 != 63 || !v.Indexed() {
		t.Fatalf("64th class interned as %d (indexed %v), want 63 indexed", c64, v.Indexed())
	}
	if again := v.InternClass(int32(typeID("cpu")), 99, 99); again != c64 {
		t.Fatalf("re-interning the same signature gave %d, want %d", again, c64)
	}
	c65 := v.InternClass(int32(typeID("cpu")), 100, 100)
	if c65 != 64 || v.Indexed() {
		t.Fatalf("65th class interned as %d (indexed %v), want 64 not indexed", c65, v.Indexed())
	}
	// Migrate PEs into the interned classes, fault another, then Reset:
	// membership and health return to construction state, the interned
	// class table survives.
	v.SetClass(0, c64)
	v.SetClass(2, c65)
	if v.ClassOf(2) != c65 || v.idleCnt[c65] != 1 {
		t.Fatalf("PE 2 not filed under the 65th class: class %d, idle %d", v.ClassOf(2), v.idleCnt[c65])
	}
	v.FaultPE(1)
	v.Reset()
	if v.NumClasses() != 65 || v.Indexed() {
		t.Fatalf("Reset dropped interned classes: %d (indexed %v)", v.NumClasses(), v.Indexed())
	}
	if v.ClassOf(0) != 0 || v.ClassOf(2) != 2 || v.Faulted(1) || v.IdleCount() != 63 {
		t.Fatalf("Reset did not restore construction state: class0=%d class2=%d faulted1=%v idle=%d",
			v.ClassOf(0), v.ClassOf(2), v.Faulted(1), v.IdleCount())
	}
	if v.idleCnt[c64] != 0 || v.idleCnt[c65] != 0 {
		t.Fatalf("empty interned classes have idle members after Reset: %d, %d", v.idleCnt[c64], v.idleCnt[c65])
	}
}

// TestCompactReadyFaultRequeuePattern drives the deque through the
// exact shape a PE fault produces: scheduling batches consume
// scattered window entries (completions) while the fault requeues
// orphaned tasks at the tail, repeatedly, against a reference deque.
// Every mixture must preserve order with requeued tasks last.
func TestCompactReadyFaultRequeuePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	v := NewView(asPEs(idleCPU(0), idleFFT(1)))
	metaFor := func(tk Task) *ReadyMeta {
		m := v.MetaFor(tk.Choices())
		return &m
	}
	var ref []Task
	next := 0
	for round := 0; round < 300; round++ {
		for n := rng.Intn(5); n > 0; n-- {
			tk := dualTask("t", int64(next+1), int64(next+2))
			next++
			v.PushReady(tk, metaFor(tk))
			ref = append(ref, tk)
		}
		if len(ref) == 0 {
			continue
		}
		// A dispatch batch: scattered removals across the window.
		remove := make([]bool, len(ref))
		nRemoved := 0
		var dispatched []Task
		for i := range remove {
			if rng.Intn(3) == 0 {
				remove[i] = true
				nRemoved++
				dispatched = append(dispatched, ref[i])
			}
		}
		v.CompactReady(remove, nRemoved)
		kept := ref[:0]
		for i, tk := range ref {
			if !remove[i] {
				kept = append(kept, tk)
			}
		}
		ref = append([]Task(nil), kept...)
		// The fault: a subset of the dispatched tasks come back as
		// requeues at the tail, in dispatch order.
		for _, tk := range dispatched {
			if rng.Intn(2) == 0 {
				v.PushReady(tk, metaFor(tk))
				ref = append(ref, tk)
			}
		}
		win := v.Ready()
		if len(win) != len(ref) {
			t.Fatalf("round %d: window %d, want %d", round, len(win), len(ref))
		}
		for i := range ref {
			if win[i] != ref[i] {
				t.Fatalf("round %d: window[%d] diverged after requeue churn", round, i)
			}
			if v.metas()[i] == nil {
				t.Fatalf("round %d: meta lost at %d", round, i)
			}
		}
	}
}

// TestCompactReadyDeadPrefixSlide forces the backing-slide branch
// (head >= 64 and dead prefix outweighing the live window) that heavy
// requeue churn reaches: the storage must slide down to head zero with
// the window intact and no stale pointers pinned beyond it.
func TestCompactReadyDeadPrefixSlide(t *testing.T) {
	v := NewView(asPEs(idleCPU(0)))
	var ref []Task
	for i := 0; i < 100; i++ {
		tk := cpuTask("t", int64(i+1))
		m := v.MetaFor(tk.Choices())
		v.PushReady(tk, &m)
		ref = append(ref, tk)
	}
	// Consume a 70-entry prefix: head lands at 70 >= 64 with 30 live,
	// so the same call must slide the backing array down.
	remove := make([]bool, 100)
	for i := 0; i < 70; i++ {
		remove[i] = true
	}
	v.CompactReady(remove, 70)
	if v.head != 0 {
		t.Fatalf("dead prefix not slid down: head=%d", v.head)
	}
	if len(v.ready) != 30 || v.ReadyLen() != 30 {
		t.Fatalf("window length wrong after slide: %d/%d", len(v.ready), v.ReadyLen())
	}
	for i, tk := range v.Ready() {
		if tk != ref[70+i] {
			t.Fatalf("window[%d] diverged after slide", i)
		}
	}
	// Nothing beyond the live window pins a task.
	for i := len(v.ready); i < cap(v.ready); i++ {
		if v.ready[:cap(v.ready)][i] != nil {
			t.Fatalf("stale task pointer pinned at backing slot %d", i)
		}
	}
	// A shorter dead prefix (below the 64 threshold) must NOT slide.
	v.Reset()
	for i := 0; i < 100; i++ {
		tk := cpuTask("t", int64(i+1))
		m := v.MetaFor(tk.Choices())
		v.PushReady(tk, &m)
	}
	remove = make([]bool, 100)
	for i := 0; i < 40; i++ {
		remove[i] = true
	}
	v.CompactReady(remove, 40)
	if v.head != 40 || v.ReadyLen() != 60 {
		t.Fatalf("sub-threshold prefix slid: head=%d live=%d", v.head, v.ReadyLen())
	}
}
