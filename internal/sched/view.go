package sched

// The indexed scheduler state. A View is the incrementally maintained
// counterpart of the (ready []Task, pes []PE) slice pair: the owner
// (the emulation core) keeps per-cost-class idle-PE bitmaps, per-PE
// availability and load counters, and the ready list with compiled
// per-task metadata up to date as events happen — dispatch, completion
// collection, reservation enqueue, ready push — instead of rebuilding
// full views on every scheduler invocation. Policies that implement
// IndexedPolicy consume the View through bitmap queries that only
// touch idle PEs and compatible tasks, so the host-side cost of one
// invocation no longer scales with ready-length x PE-count.
//
// The charged operation counts (Result.Ops) are part of the modelled
// behaviour — the paper's Figure 10b quantity — and must therefore be
// IDENTICAL between the two paths: ScheduleIndexed computes the same
// ops the slice scan would have charged (idle ranks, probe counts,
// pair weights) from the index structures. The byte-determinism
// contract is pinned by TestIndexedMatchesSlicePolicies (package
// sched) and TestIndexedMatchesSlicePath (package core).

import (
	"fmt"
	"math/bits"

	"repro/internal/vtime"
)

// ReadyMeta is the compiled per-task metadata the indexed fast paths
// consume. The emulation core derives it once per DAG node at program
// compile time (it depends only on the node's platform choices and
// the configuration's cost-class interning) and pushes it alongside
// every ready task.
//
// Everything here is expressed over *cost classes*, not type keys: a
// class is a maximal group of PEs sharing (type, speed factor, power),
// interned in first-appearance order over the PE table — the same
// partition View derives for itself, and the same one
// platform.Config.Classes computes, so the two numberings agree by
// construction. Cost is uniform within a class by definition, which is
// what lets the EFT-family fast paths decompose per class on any
// configuration, the Odroid's split "cpu" type included.
type ReadyMeta struct {
	// ClassMask has bit c set when the task carries a platform choice
	// matching class c's type, i.e. the configuration can run it on a
	// PE of class c.
	ClassMask uint64
	// METMask has bit c set for every class whose type is the task's
	// minimum-cost platform entry, resolved with MET's exact scan
	// (first strict minimum over the choice list in order); zero when
	// that entry's platform is absent from the configuration, in which
	// case the task waits, as on the slice path.
	METMask uint64
	// NumChoices is the length of the task's choice list — the
	// per-task operation count MET charges for its cost scan.
	NumChoices int32
	// Costs[c] is the task's execution cost on class c — the annotated
	// cost of its first choice matching c's type, scaled by the class
	// speed factor, exactly costOn's arithmetic. Entries outside
	// ClassMask are zero and must not be read. The slice is shared
	// compiled data: per DAG node, immutable, aliased by every ready
	// push of that node.
	Costs []int64
}

// IndexedPolicy is the optional fast-path side of Policy. A policy
// implementing it is handed the incrementally maintained View instead
// of freshly built slices. ScheduleIndexed MUST return a Result that
// is byte-identical — same assignments in the same order, same Ops —
// to what Schedule would return for the equivalent slice state;
// emulation reports are pinned on this. Third-party policies that
// don't implement the interface keep receiving the slice views.
type IndexedPolicy interface {
	Policy
	ScheduleIndexed(now vtime.Time, v *View) Result
}

// SliceOnly wraps a policy so that any indexed fast path it implements
// is hidden, forcing the emulator onto the legacy slice path. It
// exists for differential tests and path-ablation benchmarks; the
// wrapper forwards Reset to stateful policies so seeded runs stay
// comparable.
func SliceOnly(p Policy) Policy { return sliceOnly{p} }

type sliceOnly struct{ p Policy }

func (w sliceOnly) Name() string     { return w.p.Name() }
func (w sliceOnly) UsesQueues() bool { return w.p.UsesQueues() }
func (w sliceOnly) Schedule(now vtime.Time, ready []Task, pes []PE) Result {
	return w.p.Schedule(now, ready, pes)
}
func (w sliceOnly) Reset() {
	if r, ok := w.p.(Resettable); ok {
		r.Reset()
	}
}

// SetPowerCap forwards an active power cap to the wrapped policy, so
// cap events reach power-aware policies on the forced slice path too.
func (w sliceOnly) SetPowerCap(watts float64) {
	if pc, ok := w.p.(PowerCapped); ok {
		pc.SetPowerCap(watts)
	}
}

// PowerCapped is implemented by policies that honour a platform power
// cap: with a cap active (watts > 0) the policy must not place work on
// PEs drawing more than the cap. The emulation core pushes cap events
// (platevent.PowerCap) through this interface; 0 lifts the cap.
type PowerCapped interface {
	SetPowerCap(watts float64)
}

// Faulty is the optional fault-status side of PE. A faulted PE is
// offline: policies must not consider it a placement candidate at all —
// not even as EFT's tentative-wait target or a reservation-queue slot —
// though P-proportional charged scans still count it (the reference
// manager's status scan reads a dead handler's status word like any
// other). PEs that don't implement the interface are never faulted.
type Faulty interface {
	Faulted() bool
}

// isFaulted reports a PE's fault status through the optional interface.
func isFaulted(pe PE) bool {
	f, ok := pe.(Faulty)
	return ok && f.Faulted()
}

// availEntry is one (instant, PE index) pair in the per-class min-heaps
// the EFT-family fast paths use; ordering is lexicographic (at, idx),
// matching the slice scan's first-strict-minimum-in-index-order
// tie-break.
type availEntry struct {
	at  vtime.Time
	idx int32
}

func entryLess(a, b availEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}

func pushEntry(h []availEntry, e availEntry) []availEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if entryLess(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popEntry(h []availEntry) []availEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryLess(h[l], h[min]) {
			min = l
		}
		if r < n && entryLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return h
}

// viewScratch is the per-Schedule working state of the fast paths.
// Everything here is rebuilt (cheaply) or copied at the start of a
// ScheduleIndexed call and never escapes it, so a policy's tentative
// decisions cannot leak into the View's live state — the emulator
// applies the returned batch itself.
type viewScratch struct {
	idle    []uint64
	idleCnt []int32
	idleTot int

	tent  []vtime.Time
	avail []vtime.Time
	load  []int32
	heaps [][]availEntry

	buckets []uint64
}

// View is the indexed scheduler state; see the package comment above.
// A View belongs to exactly one emulator and is not safe for
// concurrent use.
type View struct {
	pes []PE
	// peClass is each PE's cost-class index. Classes — distinct
	// (TypeID, speed, power) signatures in first-appearance order over
	// pes — refine the type interning, so the Odroid's big and LITTLE
	// cores land in two classes even though both intern under the one
	// "cpu" type. Membership is time-varying under DVFS re-classing
	// (SetClass); peClass0 snapshots the construction-time membership
	// Reset restores.
	peClass    []int32
	peClass0   []int32
	numClasses int
	// allClasses masks off ClassMask bits beyond the interned classes:
	// a task may carry a mask for classes no PE of this view belongs to
	// (fake scenarios, foreign masks); such bits mean "no candidate
	// PEs" and are dropped before any per-class table is indexed. All
	// ones from 64 classes up (a shift by >= 64 yields 0 in Go).
	allClasses uint64
	words      int // uint64 words per PE bitmap

	// classBits[c*words:(c+1)*words] is the static membership bitmap of
	// class c over PE indices.
	classBits []uint64
	// classType/speed/power are the per-class signature: the TypeID the
	// class's PEs intern under, and their (uniform, by construction)
	// cost parameters.
	classType []int32
	speed     []float64
	power     []float64

	// Live state, maintained by the owner.
	idleBits []uint64
	idleCnt  []int32
	idleTot  int
	avail    []vtime.Time
	load     []int32
	// faultBits marks offline PEs (FaultPE/RestorePE). A faulted PE is
	// withdrawn from its class-membership bitmap — so every per-class
	// enumeration (idle lookups, busy heaps, load buckets) skips it
	// without a per-query check — and from the idle index.
	faultBits []uint64

	// ready/meta hold the ready window as a head-offset deque: slots
	// below head are consumed, the live window is ready[head:]. Batch
	// removals are overwhelmingly a prefix of the FIFO window (FRFS
	// assigns oldest-first), so consuming them by advancing head makes
	// the per-batch cost proportional to the batch, not the window —
	// the O(ready-length) compaction the slice path paid on every
	// invocation was the dominant host cost of saturated runs. The
	// metadata rides as pointers to the (immutable, shared) compiled
	// per-node records, so deque pushes and compaction shifts move 8
	// bytes per entry, not the whole class-cost table.
	ready []Task
	meta  []*ReadyMeta
	head  int
	// masks counts the window's tasks per distinct ClassMask (a handful
	// of rows) and choices sums their NumChoices; PushReady, CompactReady
	// and Reset maintain both. They are what lets a policy stop walking
	// a saturated window and charge the rest arithmetically (indexed.go).
	masks   []maskCount
	choices int

	scr viewScratch
}

// maskCount is one row of the ready window's ClassMask census.
type maskCount struct {
	mask uint64
	n    int
}

// classSig is one interned cost class during view construction.
type classSig struct {
	typeID int32
	speed  float64
	power  float64
}

// NewView builds the indexed state over a fixed PE table, interning
// the table's cost classes — distinct (TypeID, speed, power)
// signatures in first-appearance order, the identical partition
// platform.Config.Classes computes for the same PE sequence. Any number
// of classes is accepted; past 64 the view is no longer Indexed. It
// returns nil for an empty table or a PE without a valid TypeID. The
// pes slice is retained and must stay valid and immutable for the
// View's lifetime.
func NewView(pes []PE) *View {
	if len(pes) == 0 {
		return nil
	}
	classes := make([]classSig, 0, 4)
	peClass := make([]int32, len(pes))
	for i, pe := range pes {
		if pe.TypeID() < 0 {
			return nil
		}
		sig := classSig{typeID: int32(pe.TypeID()), speed: pe.SpeedFactor(), power: pe.PowerW()}
		ci := -1
		for j, s := range classes {
			if s == sig {
				ci = j
				break
			}
		}
		if ci < 0 {
			ci = len(classes)
			classes = append(classes, sig)
		}
		peClass[i] = int32(ci)
	}
	numClasses := len(classes)
	words := (len(pes) + 63) / 64
	v := &View{
		pes:        pes,
		peClass:    peClass,
		numClasses: numClasses,
		words:      words,
		classBits:  make([]uint64, numClasses*words),
		classType:  make([]int32, numClasses),
		speed:      make([]float64, numClasses),
		power:      make([]float64, numClasses),
		idleBits:   make([]uint64, words),
		idleCnt:    make([]int32, numClasses),
		avail:      make([]vtime.Time, len(pes)),
		load:       make([]int32, len(pes)),
		faultBits:  make([]uint64, words),
	}
	v.peClass0 = append([]int32(nil), peClass...)
	v.allClasses = uint64(1)<<uint(numClasses) - 1
	for c, sig := range classes {
		v.classType[c] = sig.typeID
		v.speed[c] = sig.speed
		v.power[c] = sig.power
	}
	v.Reset()
	return v
}

// NumClasses reports how many cost classes the view interned.
func (v *View) NumClasses() int { return v.numClasses }

// Indexed reports whether the class table fits ReadyMeta's 64-bit class
// masks. Only then may the view be handed to IndexedPolicy.ScheduleIndexed;
// past 64 classes it still keeps the ready list and every per-PE and
// per-class table (they just grow), and the owner calls Policy.Schedule
// over Ready() and PEs().
func (v *View) Indexed() bool { return v.numClasses <= 64 }

// MetaFor derives the compiled metadata of a choice list against this
// view's class interning — the same lowering core.Compile performs
// against platform.Config.Classes. It allocates (the Costs table), so
// it serves tests, tooling and custom harnesses; the emulation core
// pushes pre-compiled per-node metadata instead.
func (v *View) MetaFor(choices []PlatformChoice) ReadyMeta {
	m := ReadyMeta{NumChoices: int32(len(choices)), Costs: make([]int64, v.numClasses)}
	for c := 0; c < v.numClasses; c++ {
		for _, ch := range choices {
			// First entry wins, matching costOn's scan order.
			if int32(ch.TypeID) == v.classType[c] {
				m.ClassMask |= 1 << uint(c)
				m.Costs[c] = int64(float64(ch.CostNS) * v.speed[c])
				break
			}
		}
	}
	bestType := int32(-1)
	var bestCost int64 = -1
	for _, ch := range choices {
		if bestCost < 0 || ch.CostNS < bestCost {
			bestCost = ch.CostNS
			bestType = int32(ch.TypeID)
		}
	}
	if bestType >= 0 {
		for c := 0; c < v.numClasses; c++ {
			if v.classType[c] == bestType {
				m.METMask |= 1 << uint(c)
			}
		}
	}
	return m
}

// Reset restores the start-of-run state: every PE idle with zero
// availability and load, all faults cleared, original class membership
// (DVFS re-classing undone — though classes interned after construction
// survive, so repeated runs of one dynamic emulator see one stable
// class table), and an empty ready list (backing arrays are kept,
// pointers cleared).
func (v *View) Reset() {
	copy(v.peClass, v.peClass0)
	clear(v.faultBits)
	clear(v.classBits)
	clear(v.idleBits)
	clear(v.idleCnt)
	for i := range v.pes {
		v.classBits[int(v.peClass[i])*v.words+i/64] |= 1 << uint(i%64)
		v.idleBits[i/64] |= 1 << uint(i%64)
		v.idleCnt[v.peClass[i]]++
	}
	v.idleTot = len(v.pes)
	clear(v.avail)
	clear(v.load)
	clear(v.ready[:cap(v.ready)])
	clear(v.meta[:cap(v.meta)])
	v.ready = v.ready[:0]
	v.meta = v.meta[:0]
	v.head = 0
	v.masks = v.masks[:0]
	v.choices = 0
}

// MarkBusy removes a PE from the idle index; idempotent.
func (v *View) MarkBusy(pi int) {
	w, b := pi/64, uint64(1)<<uint(pi%64)
	if v.idleBits[w]&b != 0 {
		v.idleBits[w] &^= b
		v.idleCnt[v.peClass[pi]]--
		v.idleTot--
	}
}

// MarkIdle returns a PE to the idle index; idempotent.
func (v *View) MarkIdle(pi int) {
	w, b := pi/64, uint64(1)<<uint(pi%64)
	if v.idleBits[w]&b == 0 {
		v.idleBits[w] |= b
		v.idleCnt[v.peClass[pi]]++
		v.idleTot++
	}
}

// FaultPE withdraws a PE from the schedulable pool atomically: out of
// the idle index, out of its class-membership bitmap (so busy-PE
// enumerations — EFT's tentative heaps, EFTQ's availability heaps —
// skip it too), load and availability zeroed. The owner requeues the
// PE's in-flight and reserved tasks itself (PushReady), since the View
// doesn't hold them. Idempotent.
func (v *View) FaultPE(pi int) {
	w, b := pi/64, uint64(1)<<uint(pi%64)
	if v.faultBits[w]&b != 0 {
		return
	}
	v.MarkBusy(pi)
	v.faultBits[w] |= b
	v.classBits[int(v.peClass[pi])*v.words+w] &^= b
	v.avail[pi] = 0
	v.load[pi] = 0
}

// RestorePE returns a faulted PE to the pool, idle with a clean slate,
// under its current class. Idempotent (a no-op on healthy PEs).
func (v *View) RestorePE(pi int) {
	w, b := pi/64, uint64(1)<<uint(pi%64)
	if v.faultBits[w]&b == 0 {
		return
	}
	v.faultBits[w] &^= b
	v.classBits[int(v.peClass[pi])*v.words+w] |= b
	v.avail[pi] = 0
	v.load[pi] = 0
	v.MarkIdle(pi)
}

// Faulted reports whether the PE is currently withdrawn by FaultPE.
func (v *View) Faulted(pi int) bool {
	return v.faultBits[pi/64]&(1<<uint(pi%64)) != 0
}

// SetClass migrates a PE to another interned cost class — the DVFS
// re-classing path: membership bitmap, idle count, and class index all
// move together, so every per-class structure built afterwards sees the
// PE under its new signature. Works on faulted PEs too (the membership
// bit is withdrawn either way; RestorePE re-files under the new class).
func (v *View) SetClass(pi, ci int) {
	old := int(v.peClass[pi])
	if old == ci {
		return
	}
	w, b := pi/64, uint64(1)<<uint(pi%64)
	if v.faultBits[w]&b == 0 {
		v.classBits[old*v.words+w] &^= b
		v.classBits[ci*v.words+w] |= b
	}
	if v.idleBits[w]&b != 0 {
		v.idleCnt[old]--
		v.idleCnt[ci]++
	}
	v.peClass[pi] = int32(ci)
}

// ClassOf reports the PE's current cost class.
func (v *View) ClassOf(pi int) int { return int(v.peClass[pi]) }

// InternClass finds or adds the cost class of signature (typeID, speed,
// power), returning its index. A 65th class ends Indexed for good. New
// classes start with no members; PEs migrate in through SetClass.
// Interned classes are permanent: they survive Reset, so an emulator
// that pre-interns its DVFS steps sees one stable class numbering
// across runs.
func (v *View) InternClass(typeID int32, speed, power float64) int {
	for c := 0; c < v.numClasses; c++ {
		if v.classType[c] == typeID && v.speed[c] == speed && v.power[c] == power {
			return c
		}
	}
	c := v.numClasses
	v.numClasses++
	v.allClasses = uint64(1)<<uint(v.numClasses) - 1
	v.classType = append(v.classType, typeID)
	v.speed = append(v.speed, speed)
	v.power = append(v.power, power)
	v.idleCnt = append(v.idleCnt, 0)
	v.classBits = append(v.classBits, make([]uint64, v.words)...)
	return c
}

// SetAvail records the instant the PE's current dispatch completes —
// the AvailableAt the slice path would read back from the handler.
func (v *View) SetAvail(pi int, at vtime.Time) { v.avail[pi] = at }

// AddLoad adjusts the PE's held-task count (running or reserved): +1
// per task handed to the handler by a scheduling batch, -1 per
// completion collected. Mirrors QueueLen() plus the running slot.
func (v *View) AddLoad(pi, delta int) { v.load[pi] += int32(delta) }

// PushReady appends a task (with its compiled metadata) to the ready
// list; order is the arrival order FRFS preserves. The metadata is
// retained by pointer: it must stay valid and immutable while the task
// is in the window (the emulation core passes per-node records that
// live as long as the compiled Program).
func (v *View) PushReady(t Task, m *ReadyMeta) {
	v.ready = append(v.ready, t)
	v.meta = append(v.meta, m)
	v.census(m, 1)
}

// census adds d window tasks of m's shape to the per-mask counts.
func (v *View) census(m *ReadyMeta, d int) {
	v.choices += d * int(m.NumChoices)
	for i := range v.masks {
		if v.masks[i].mask == m.ClassMask {
			v.masks[i].n += d
			return
		}
	}
	v.masks = append(v.masks, maskCount{m.ClassMask, d})
}

// vacate takes backing slot i out of the window: the census forgets
// its task and the slot stops pinning it.
func (v *View) vacate(i int) {
	v.census(v.meta[i], -1)
	v.ready[i], v.meta[i] = nil, nil
}

// CompactReady drops every window entry whose index is marked in
// remove (window-relative; len(remove) is the window length), preserving
// order. nRemoved is the mark count, so hole finding stops at the last
// mark. A removed prefix — FRFS assigns oldest-first — is consumed by
// advancing the head. Holes beyond it are closed from the nearer end:
// EFT's sit a few slots past the head of a window thousands deep, so
// the short kept run before the last hole shifts up and the head
// advances over it; holes near the tail shift the tail down. The cost
// is the shorter side, never the window. Once the dead prefix outweighs
// the live window the backing array slides down, so storage stays
// proportional to the peak window.
func (v *View) CompactReady(remove []bool, nRemoved int) {
	base := v.head
	i := 0
	for ; i < len(remove) && remove[i]; i++ {
		v.vacate(base + i)
	}
	v.head = base + i
	first, last := -1, -1
	for j, seen := i, i; seen < nRemoved && j < len(remove); j++ {
		if remove[j] {
			v.vacate(base + j)
			if first < 0 {
				first = j
			}
			last = j
			seen++
		}
	}
	if first >= 0 {
		// Kept entries before the last hole or after the first: move the
		// fewer, one bulk copy per run between holes.
		if before, after := last+1-nRemoved, len(remove)-first-(nRemoved-i); before <= after {
			dst := base + last + 1
			for j := last; j >= i; {
				if remove[j] {
					j--
					continue
				}
				k := j
				for k >= i && !remove[k] {
					k--
				}
				dst -= j - k
				copy(v.meta[dst:], v.meta[base+k+1:base+j+1])
				copy(v.ready[dst:], v.ready[base+k+1:base+j+1])
				j = k
			}
			clear(v.ready[v.head:dst])
			clear(v.meta[v.head:dst])
			v.head = dst
		} else {
			dst := base + first
			for j := first; j < len(remove); {
				if j <= last && remove[j] {
					j++
					continue
				}
				k := len(remove) // past the last hole the rest is one run
				if j < last {
					for k = j; !remove[k]; k++ {
					}
				}
				copy(v.meta[dst:], v.meta[base+j:base+k])
				dst += copy(v.ready[dst:], v.ready[base+j:base+k])
				j = k
			}
			clear(v.ready[dst:])
			clear(v.meta[dst:])
			v.ready = v.ready[:dst]
			v.meta = v.meta[:dst]
		}
	}
	if v.head == len(v.ready) {
		v.ready = v.ready[:0]
		v.meta = v.meta[:0]
		v.head = 0
	} else if v.head >= 64 && v.head > len(v.ready)-v.head {
		n := copy(v.ready, v.ready[v.head:])
		copy(v.meta, v.meta[v.head:])
		clear(v.ready[n:])
		clear(v.meta[n:])
		v.ready = v.ready[:n]
		v.meta = v.meta[:n]
		v.head = 0
	}
}

// Check recounts the ready window against what PushReady, CompactReady
// and Reset maintain incrementally and reports the first disagreement:
// the per-mask census, the choice sum, and nil in every backing slot
// outside the window (a consumed slot must not pin its task). It is
// O(window) and allocates: for tests and fuzzers.
func (v *View) Check() error {
	choices, counts := 0, map[uint64]int{}
	for _, m := range v.metas() {
		choices += int(m.NumChoices)
		counts[m.ClassMask]++
	}
	for _, r := range v.masks {
		if counts[r.mask] != r.n {
			return fmt.Errorf("sched: census holds %d tasks of mask %#x, window has %d", r.n, r.mask, counts[r.mask])
		}
		delete(counts, r.mask)
	}
	if len(counts) != 0 || choices != v.choices {
		return fmt.Errorf("sched: census misses masks %v; choice sum %d, window has %d", counts, v.choices, choices)
	}
	live := func(i int) bool { return i >= v.head && i < len(v.ready) }
	for i, t := range v.ready[:cap(v.ready)] {
		if (t != nil) != live(i) {
			return fmt.Errorf("sched: backing slot %d of window [%d,%d) holds task %v", i, v.head, len(v.ready), t)
		}
	}
	for i, m := range v.meta[:cap(v.meta)] {
		if (m != nil) != live(i) {
			return fmt.Errorf("sched: backing slot %d of window [%d,%d) holds meta %v", i, v.head, len(v.ready), m)
		}
	}
	return nil
}

// ReadyLen is the live ready window length.
func (v *View) ReadyLen() int { return len(v.ready) - v.head }

// Ready exposes the live ready window. The slice aliases the View's
// backing storage: policies may read it during a Schedule call but
// must not retain it, the same contract as the scratch-built slices.
func (v *View) Ready() []Task { return v.ready[v.head:] }

// metas is the ready window's compiled metadata, index-aligned with
// Ready().
func (v *View) metas() []*ReadyMeta { return v.meta[v.head:] }

// PEs exposes the fixed PE table (index-aligned with assignment
// PEIndex values).
func (v *View) PEs() []PE { return v.pes }

// IdleCount reports the number of currently idle PEs.
func (v *View) IdleCount() int { return v.idleTot }

// numPEs is the P every policy charges for its per-handler status
// scan.
func (v *View) numPEs() int { return len(v.pes) }

// --- per-call scratch queries (fast paths only) -----------------------------

// beginIdleScratch snapshots the idle index for one Schedule call;
// tentative assignments then consume the snapshot via takeIdle without
// touching live state.
func (v *View) beginIdleScratch() {
	v.scr.idle = append(v.scr.idle[:0], v.idleBits...)
	v.scr.idleCnt = append(v.scr.idleCnt[:0], v.idleCnt...)
	v.scr.idleTot = v.idleTot
}

// takeIdle consumes one idle PE from the call snapshot and reports
// whether it was its class's last — the only way canPlace turns false.
func (v *View) takeIdle(pi int) bool {
	v.scr.idle[pi/64] &^= 1 << uint(pi%64)
	v.scr.idleTot--
	c := v.peClass[pi]
	v.scr.idleCnt[c]--
	return v.scr.idleCnt[c] == 0
}

// windowMeeting counts the window tasks whose ClassMask meets classes.
func (v *View) windowMeeting(classes uint64) int {
	n := 0
	for _, r := range v.masks {
		if r.mask&classes != 0 {
			n += r.n
		}
	}
	return n
}

// canPlace reports whether any window task supports a class, among
// those in within, with an idle PE left in the call snapshot — the
// saturation exit: once false, nothing more can be assigned this call.
// Judged over the whole window, not the unwalked suffix, so sufficient
// rather than necessary: a walked task that declined an idle PE keeps
// it true.
func (v *View) canPlace(within uint64) bool {
	if v.scr.idleTot == 0 {
		return false
	}
	var idle uint64
	for c, n := range v.scr.idleCnt {
		if n > 0 {
			idle |= 1 << uint(c)
		}
	}
	return v.windowMeeting(idle&within) > 0
}

// liveClasses masks the classes that have a member in service (not
// faulted): the classes a task can be placed on, if only tentatively.
func (v *View) liveClasses() uint64 {
	var live uint64
	for c := 0; c < v.numClasses; c++ {
		for _, w := range v.classBits[c*v.words : (c+1)*v.words] {
			if w != 0 {
				live |= 1 << uint(c)
				break
			}
		}
	}
	return live
}

// minIdleOfClass returns the lowest-index idle PE of one class, or -1.
func (v *View) minIdleOfClass(t int) int {
	if v.scr.idleCnt[t] == 0 {
		return -1
	}
	tb := v.classBits[t*v.words:]
	for w, m := range v.scr.idle {
		if x := m & tb[w]; x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// maskWord ORs the membership bitmaps of every class in mask for one
// bitmap word.
func (v *View) maskWord(mask uint64, w int) uint64 {
	var u uint64
	for mm := mask; mm != 0; mm &= mm - 1 {
		u |= v.classBits[bits.TrailingZeros64(mm)*v.words+w]
	}
	return u
}

// minIdleOfMask returns the lowest-index idle PE over every class in
// mask — the first idle supporting PE the FRFS probe order finds — or
// -1 when no compatible class has an idle PE.
func (v *View) minIdleOfMask(mask uint64) int {
	mask &= v.allClasses
	for w, m := range v.scr.idle {
		if x := m & v.maskWord(mask, w); x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// idleRankBelow counts idle PEs (of any type) with index strictly
// below pi — the failed probes FRFS charges before its match.
func (v *View) idleRankBelow(pi int) int {
	w := pi / 64
	n := 0
	for i := 0; i < w; i++ {
		n += bits.OnesCount64(v.scr.idle[i])
	}
	if r := uint(pi % 64); r > 0 {
		n += bits.OnesCount64(v.scr.idle[w] & (1<<r - 1))
	}
	return n
}

// idleCountOfMask sums the idle counts of every class in mask.
func (v *View) idleCountOfMask(mask uint64) int {
	n := 0
	for mm := mask & v.allClasses; mm != 0; mm &= mm - 1 {
		n += int(v.scr.idleCnt[bits.TrailingZeros64(mm)])
	}
	return n
}

// kthIdleOfMask returns the (k+1)-th lowest-index idle PE over the
// mask's classes — the candidates[k] of RANDOM's index-ordered
// candidate list. k must be < idleCountOfMask(mask).
func (v *View) kthIdleOfMask(mask uint64, k int) int {
	mask &= v.allClasses
	for w, m := range v.scr.idle {
		x := m & v.maskWord(mask, w)
		c := bits.OnesCount64(x)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			x &= x - 1
		}
		return w*64 + bits.TrailingZeros64(x)
	}
	return -1
}

// ensureHeaps sizes the per-class heap table.
func (v *View) ensureHeaps() {
	for len(v.scr.heaps) < v.numClasses {
		v.scr.heaps = append(v.scr.heaps, nil)
	}
}

// beginTentative builds EFT's call state: per-class min-heaps over the
// busy PEs keyed by (max(AvailableAt, now), index), plus the tentative
// table the heap entries validate against. Must run before any
// takeIdle on the same call.
func (v *View) beginTentative(now vtime.Time) {
	v.ensureHeaps()
	if cap(v.scr.tent) < len(v.pes) {
		v.scr.tent = make([]vtime.Time, len(v.pes))
	}
	v.scr.tent = v.scr.tent[:len(v.pes)]
	for t := 0; t < v.numClasses; t++ {
		h := v.scr.heaps[t][:0]
		tb := v.classBits[t*v.words:]
		for w := 0; w < v.words; w++ {
			busy := tb[w] &^ v.idleBits[w]
			for ; busy != 0; busy &= busy - 1 {
				pi := w*64 + bits.TrailingZeros64(busy)
				a := v.pes[pi].AvailableAt()
				if a < now {
					a = now
				}
				v.scr.tent[pi] = a
				h = pushEntry(h, availEntry{a, int32(pi)})
			}
		}
		v.scr.heaps[t] = h
	}
}

// peekBusyMin returns the busy PE of class t with the lexicographically
// smallest (tentative, index), discarding entries invalidated by
// setTentative.
func (v *View) peekBusyMin(t int) (vtime.Time, int, bool) {
	h := v.scr.heaps[t]
	for len(h) > 0 {
		top := h[0]
		if v.scr.tent[top.idx] == top.at {
			v.scr.heaps[t] = h
			return top.at, int(top.idx), true
		}
		h = popEntry(h)
	}
	v.scr.heaps[t] = h
	return 0, -1, false
}

// setTentative updates a PE's tentative completion (EFT's placement
// bookkeeping) and enters it into its class's busy heap.
func (v *View) setTentative(pi int, at vtime.Time) {
	v.scr.tent[pi] = at
	t := v.peClass[pi]
	v.scr.heaps[t] = pushEntry(v.scr.heaps[t], availEntry{at, int32(pi)})
}

// beginAvailHeaps builds EFTQ's call state: scratch copies of the
// per-PE load and availability (clamped to now), per-class min-heaps
// keyed (avail, index) over PEs with spare queue capacity, and the
// total free slot count the outer loop drains.
func (v *View) beginAvailHeaps(now vtime.Time, depth int32) int {
	v.ensureHeaps()
	v.scr.load = append(v.scr.load[:0], v.load...)
	if cap(v.scr.avail) < len(v.pes) {
		v.scr.avail = make([]vtime.Time, len(v.pes))
	}
	v.scr.avail = v.scr.avail[:len(v.pes)]
	free := 0
	for t := 0; t < v.numClasses; t++ {
		h := v.scr.heaps[t][:0]
		tb := v.classBits[t*v.words:]
		for w := 0; w < v.words; w++ {
			for x := tb[w]; x != 0; x &= x - 1 {
				pi := w*64 + bits.TrailingZeros64(x)
				a := v.avail[pi]
				if a < now {
					a = now
				}
				v.scr.avail[pi] = a
				if l := v.scr.load[pi]; l < depth {
					free += int(depth - l)
					h = pushEntry(h, availEntry{a, int32(pi)})
				}
			}
		}
		v.scr.heaps[t] = h
	}
	return free
}

// peekAvailMin returns the spare-capacity PE of class t with the
// lexicographically smallest (avail, index), discarding entries
// invalidated by queue growth or availability pushes.
func (v *View) peekAvailMin(t int, depth int32) (vtime.Time, int, bool) {
	h := v.scr.heaps[t]
	for len(h) > 0 {
		top := h[0]
		if v.scr.load[top.idx] < depth && v.scr.avail[top.idx] == top.at {
			v.scr.heaps[t] = h
			return top.at, int(top.idx), true
		}
		h = popEntry(h)
	}
	v.scr.heaps[t] = h
	return 0, -1, false
}

// commitAvail applies one EFTQ placement: the PE's queue grows and its
// availability advances by the committed cost.
func (v *View) commitAvail(pi int, at vtime.Time, depth int32) {
	v.scr.load[pi]++
	v.scr.avail[pi] = at
	if v.scr.load[pi] < depth {
		t := v.peClass[pi]
		v.scr.heaps[t] = pushEntry(v.scr.heaps[t], availEntry{at, int32(pi)})
	}
}

// beginLoadBuckets builds FRFSQ's call state: a scratch load copy and
// per-(class, load) membership bitmaps for loads below depth, plus the
// total free slot count.
func (v *View) beginLoadBuckets(depth int32) int {
	v.scr.load = append(v.scr.load[:0], v.load...)
	n := v.numClasses * int(depth) * v.words
	if cap(v.scr.buckets) < n {
		v.scr.buckets = make([]uint64, n)
	}
	v.scr.buckets = v.scr.buckets[:n]
	clear(v.scr.buckets)
	free := 0
	for pi := range v.pes {
		if v.faultBits[pi/64]&(1<<uint(pi%64)) != 0 {
			continue
		}
		l := v.scr.load[pi]
		if d := depth - l; d > 0 {
			free += int(d)
		}
		if l < depth {
			t := int(v.peClass[pi])
			v.scr.buckets[(t*int(depth)+int(l))*v.words+pi/64] |= 1 << uint(pi%64)
		}
	}
	return free
}

// minLoadOfMask returns the compatible PE with the smallest load below
// depth, ties broken by lowest index — FRFSQ's shortest-queue pick —
// or -1.
func (v *View) minLoadOfMask(mask uint64, depth int32) int {
	mask &= v.allClasses
	for l := int32(0); l < depth; l++ {
		best := -1
		for mm := mask; mm != 0; mm &= mm - 1 {
			t := bits.TrailingZeros64(mm)
			row := v.scr.buckets[(t*int(depth)+int(l))*v.words:][:v.words]
			for w, x := range row {
				if x != 0 {
					if pi := w*64 + bits.TrailingZeros64(x); best == -1 || pi < best {
						best = pi
					}
					break
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// bumpLoadBucket applies one FRFSQ placement: the PE moves from its
// load bucket to the next (dropping out once full).
func (v *View) bumpLoadBucket(pi int, depth int32) {
	t := int(v.peClass[pi])
	l := v.scr.load[pi]
	w, b := pi/64, uint64(1)<<uint(pi%64)
	v.scr.buckets[(t*int(depth)+int(l))*v.words+w] &^= b
	v.scr.load[pi] = l + 1
	if l+1 < depth {
		v.scr.buckets[(t*int(depth)+int(l+1))*v.words+w] |= b
	}
}
