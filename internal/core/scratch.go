package core

import (
	"repro/internal/stats"
	"repro/internal/vtime"
)

// peEvent is one pending PE completion in the emulator's next-event
// tracker: the instant handler h finishes its running task. The
// tracker replaces the per-iteration O(PEs) busyUntil scan with an
// O(log PEs) binary min-heap, which is what keeps the loop flat on the
// 32/64-PE synthetic configurations.
type peEvent struct {
	at vtime.Time
	h  int32
}

// less orders events by (at, handler index). A running handler has one
// pending event, so keys are unique and pop order is a property of the
// keys, not of how the heap happens to be arranged.
func (a peEvent) less(b peEvent) bool { return a.at < b.at || (a.at == b.at && a.h < b.h) }

// siftUp restores the heap after entry i's key decreased (or it is new).
func siftUp(ev []peEvent, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if ev[parent].less(ev[i]) {
			return
		}
		ev[parent], ev[i] = ev[i], ev[parent]
		i = parent
	}
}

// siftDown restores the heap after entry i's key increased.
func siftDown(ev []peEvent, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(ev) && ev[l].less(ev[min]) {
			min = l
		}
		if r < len(ev) && ev[r].less(ev[min]) {
			min = r
		}
		if min == i {
			return
		}
		ev[i], ev[min] = ev[min], ev[i]
		i = min
	}
}

// Scratch holds the emulator's reusable working buffers: the sorted
// arrival queue, the per-invocation assignment masks, the
// completion-event heap, the task and instance slabs, and a capacity
// hint for the report's task records. (The ready list lives in the
// emulator's sched.View.) The report is the only per-Run memory that
// escapes, so a Scratch can be handed from one emulation to the next —
// the sweep engine keeps one per worker in a sync.Pool so large grids
// stop paying the allocation cost of instantiation and the scheduler
// hot path on every cell.
//
// Buffer ownership: during a Run the emulator owns every buffer. On
// exit, release() clears the transient buffers and the unused capacity
// tails of the slabs, but the slab heads stay live — they back the
// finished emulator's Instances() view — until the next Run on the
// same Scratch reclaims them. A pooled scratch therefore pins at most
// the most recent cell's instantiated state.
//
// A Scratch is not safe for concurrent use: at most one Emulator may
// run against it at a time.
type Scratch struct {
	arrivals []Arrival

	// tasks is the instantiation slab: every task of every instance of
	// one Run, contiguous, sliced per instance.
	tasks []Task
	// instances and instPtrs back the emulator's instance table.
	instances []AppInstance
	instPtrs  []*AppInstance

	// taken and remove are schedule()'s per-invocation assignment
	// masks (PE already assigned this batch / ready index consumed).
	taken  []bool
	remove []bool

	// events is the completion min-heap; due collects the handler
	// indices popped for one monitor pass.
	events []peEvent
	due    []int32

	// taskCap remembers the largest task-record count seen, so the
	// next report's stats buffer is sized once instead of grown
	// append-by-append.
	taskCap int
}

// NewScratch returns an empty scratch. Emulators created without an
// explicit scratch allocate their own, so sharing is opt-in.
func NewScratch() *Scratch { return &Scratch{} }

// sortedArrivals returns a scratch-backed copy of arrivals, to be
// sorted by the caller.
func (s *Scratch) sortedArrivals(arrivals []Arrival) []Arrival {
	s.arrivals = append(s.arrivals[:0], arrivals...)
	return s.arrivals
}

// taskSlots returns the length-n task slab for this Run. Contents are
// stale until the caller overwrites them; instantiation writes every
// element.
func (s *Scratch) taskSlots(n int) []Task {
	if cap(s.tasks) < n {
		s.tasks = make([]Task, n)
	}
	s.tasks = s.tasks[:n]
	return s.tasks
}

// instanceSlots returns the length-n instance slab for this Run and
// its pointer table, empty with room for n: the emulator appends each
// instance as it is injected.
func (s *Scratch) instanceSlots(n int) ([]AppInstance, []*AppInstance) {
	if cap(s.instances) < n {
		s.instances = make([]AppInstance, n)
	}
	s.instances = s.instances[:n]
	if cap(s.instPtrs) < n {
		s.instPtrs = make([]*AppInstance, n)
	}
	s.instPtrs = s.instPtrs[:n]
	return s.instances, s.instPtrs[:0]
}

// boolMask returns a length-n all-false mask backed by *buf. It does
// NOT clear: the masks live under an all-false invariant — schedule()
// dirties only its batch's indices and resets exactly those after the
// batch is applied, so checkout is O(1) instead of an O(window) clear
// per invocation (a fresh allocation is zeroed by the runtime, and
// clearMasks restores the invariant per run for aborted batches).
func boolMask(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// takenMask returns schedule()'s all-false per-PE assignment mask.
func (s *Scratch) takenMask(n int) []bool { return boolMask(&s.taken, n) }

// removeMask returns schedule()'s all-false per-ready-index mask.
func (s *Scratch) removeMask(n int) []bool { return boolMask(&s.remove, n) }

// clearMasks restores the masks' all-false invariant wholesale; called
// once per run so a batch aborted mid-apply (policy contract
// violation) cannot leak marks into the scratch's next emulation.
func (s *Scratch) clearMasks() {
	clear(s.taken[:cap(s.taken)])
	clear(s.remove[:cap(s.remove)])
}

// taskRecords returns a fresh record slice presized to the largest
// emulation this scratch has seen. The slice escapes with the report,
// so it is allocated, not pooled — only the capacity knowledge is
// reused.
func (s *Scratch) taskRecords() []stats.TaskRecord {
	return make([]stats.TaskRecord, 0, s.taskCap)
}

// noteTaskCount records a finished emulation's task-record count. The
// hint tracks the workload: it grows to the largest run seen but
// decays when runs shrink, so one dense sweep does not leave every
// later small cell's escaping report slice over-allocated.
func (s *Scratch) noteTaskCount(n int) {
	switch {
	case n > s.taskCap:
		s.taskCap = n
	case n < s.taskCap/4:
		s.taskCap /= 2
	}
}

// release zeroes the pointer-bearing slots of the transient buffers
// (including the unused capacity tails) and the slab tails beyond this
// Run's length. The slab heads are deliberately left intact: they back
// the emulator's Instances() view until the next Run on this scratch
// overwrites them. Everything else must not outlive the Run, so a
// scratch parked in the sweep engine's pool never pins more than the
// last emulation's state.
func (s *Scratch) release() {
	clear(s.arrivals[:cap(s.arrivals)])
	clear(s.tasks[len(s.tasks):cap(s.tasks)])
	clear(s.instances[len(s.instances):cap(s.instances)])
	clear(s.instPtrs[len(s.instPtrs):cap(s.instPtrs)])
	s.events = s.events[:0]
	s.due = s.due[:0]
}
