// Package sweep is the framework's parallel experiment engine: it
// fans a grid of independent emulation cells out over a bounded worker
// pool and merges the results in grid order, so a sweep parallelised
// over N workers produces byte-identical output to the sequential run.
//
// The paper's evaluation (Section III) is exactly such a grid —
// policy x injection rate x configuration x trial — and every cell is
// an independent deterministic emulation against its own virtual
// clock, so the sweep layer is embarrassingly parallel. Determinism is
// preserved by construction rather than by locking: each cell carries
// its own seed and builds its own emulator, workers share nothing but
// a per-worker scratch buffer (core.Scratch, recycled through a
// sync.Pool), and results land in a slice indexed by grid position, so
// neither the worker count nor completion order can influence what a
// cell computes or where its result ends up.
//
// Cells are plain functions, so anything can be swept, but most grids
// are emulator runs: the Emulation cell spec in this package carries a
// complete core.Options cell (policy, platform, trace, seed, and the
// SkipExecution fast path used by timing-only scheduler studies) and
// handles per-worker scratch plumbing itself.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Cell is one independent unit of work in a sweep grid. Run receives
// the worker's reusable scratch; it must not share mutable state with
// other cells and must compute the same result regardless of which
// worker executes it or when.
type Cell[T any] struct {
	// Label identifies the cell in progress output and errors
	// ("fig10 eft@6.92").
	Label string
	// Run executes the cell. The scratch is owned by the calling
	// worker for the duration of the call.
	Run func(s *core.Scratch) (T, error)
}

// Options configure a sweep run.
type Options struct {
	// Workers bounds the worker pool; 0 (the default) uses
	// runtime.GOMAXPROCS(0). 1 degenerates to a sequential sweep.
	Workers int
	// Progress, when non-nil, receives throttled "done/total + ETA"
	// lines (cmd/experiments points it at stderr). nil is silent.
	Progress io.Writer
	// Label names the sweep in progress output.
	Label string
	// KeepGoing runs every cell even after failures: a failing or
	// panicking cell becomes a CellError in the Outcome instead of
	// aborting the grid, so long-lived callers (the emulated daemon)
	// can merge the completed cells and report the broken ones
	// per-coordinate. The default (false) preserves the classic
	// abort-on-first-error semantics.
	KeepGoing bool
}

// CellError is the structured failure of one grid cell: the grid
// coordinate (Index), the cell's label, and whether the failure was a
// recovered panic. A sweep converts worker panics into CellErrors so a
// single bad cell can never take down the process that hosts the pool.
type CellError struct {
	// Index is the cell's grid coordinate (cells[Index] failed).
	Index int
	// Label is the failing cell's label.
	Label string
	// Panicked records that Err was recovered from a panic rather than
	// returned by the cell.
	Panicked bool
	// Err is the underlying failure; for panics it carries the panic
	// value and stack.
	Err error
}

// Error renders the classic sweep error shape ("sweep: cell 5 (eft@6.92): ...").
func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d (%s): %v", e.Index, e.Label, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Outcome is the full result of a context-aware sweep, partial
// completion included. Results is always in grid order; Results[i] is
// meaningful only where Done[i] is true.
type Outcome[T any] struct {
	// Results holds per-cell results in grid order.
	Results []T
	// Done marks which cells completed successfully. Under
	// cancellation or abort the set of completed cells depends on
	// worker timing, but every completed cell's value is the
	// deterministic value that cell always computes.
	Done []bool
	// Errs lists failed cells in ascending grid order (empty on a
	// clean run). With Options.KeepGoing it covers every failed cell;
	// without, Errs[0] is always the lowest-indexed failing cell of the
	// grid (see RunContext), and which higher-indexed failures follow it
	// depends on how far the workers got before the abort.
	Errs []*CellError
	// Incomplete is true when not every cell was attempted — the
	// context was cancelled or a failure aborted the grid. A caller
	// that consumes partial results must check this flag: a sweep
	// never silently truncates.
	Incomplete bool
}

// NumDone counts the successfully completed cells.
func (o *Outcome[T]) NumDone() int {
	n := 0
	for _, d := range o.Done {
		if d {
			n++
		}
	}
	return n
}

// scratchPool recycles per-worker emulator scratch state across sweeps
// so back-to-back grids (cmd/experiments -exp all) keep their warmed
// buffers.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// Run executes every cell over the worker pool and returns the
// results in grid order: out[i] is cells[i]'s result, whatever order
// the workers finished in. On failure it returns the error of the
// lowest-indexed failing cell of the grid — the same cell at every
// worker count (see RunContext); which of the cells above it still ran
// before the abort is what varies. Callers that need cancellation,
// partial-result merging, or keep-going semantics use RunContext.
func Run[T any](cells []Cell[T], opts Options) ([]T, error) {
	opts.KeepGoing = false
	oc, err := RunContext(context.Background(), cells, opts)
	if err != nil {
		return nil, err
	}
	if len(oc.Results) == 0 {
		return nil, nil
	}
	return oc.Results, nil
}

// RunContext is the context-aware sweep entry point. It executes cells
// over the worker pool until the grid is exhausted, the context is
// cancelled, or (without Options.KeepGoing) a cell fails. The returned
// Outcome always carries every completed cell's result in grid order —
// cancellation and failure surrender the remaining cells, never the
// finished ones — with Incomplete set whenever some cell was not run.
//
// Cancellation is drain-shaped: in-flight cells finish (a cell is an
// independent emulation against its own virtual clock and cannot be
// preempted mid-run), no new cells start, and every worker goroutine
// has exited by the time RunContext returns, so a cancelled sweep
// leaks nothing.
//
// The error is non-nil when the run was cut short: the context's
// cancellation cause, or the *CellError of the lowest-indexed failing
// cell when a cell failure aborted the grid. That cell is the same on
// every run: cells are handed out in index order, so the lowest failing
// cell m is handed to a worker before any failure exists to close the
// abort, always runs, and sorts first. Only which cells above m ran
// depends on timing. With KeepGoing, cell failures are reported only
// through Outcome.Errs and the error stays nil.
func RunContext[T any](ctx context.Context, cells []Cell[T], opts Options) (*Outcome[T], error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	oc := &Outcome[T]{
		Results: make([]T, len(cells)),
		Done:    make([]bool, len(cells)),
	}
	if len(cells) == 0 {
		return oc, ctx.Err()
	}

	errs := make([]*CellError, len(cells))
	prog := newProgress(opts.Progress, opts.Label, len(cells))
	attempted := 0

	if workers <= 1 {
		// Sequential arm: no goroutines, and an error aborts at the
		// exact failing cell. Kept beside the pool for that guarantee: a
		// pool of one races the failing worker's abort against the
		// feeder's select, so cell i+1 may or may not run.
		s := scratchPool.Get().(*core.Scratch)
		defer scratchPool.Put(s)
	seq:
		for i, c := range cells {
			if ctx.Err() != nil {
				break seq
			}
			attempted++
			if err := runCell(&oc.Results[i], i, c, s, errs); err != nil {
				if !opts.KeepGoing {
					break seq
				}
				continue
			}
			oc.Done[i] = true
			prog.step()
		}
		return finishOutcome(ctx, oc, errs, attempted, len(cells), opts, prog)
	}

	next := make(chan int)
	var wg sync.WaitGroup
	var failed sync.Once
	abort := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker for its whole lifetime: buffer
			// reuse without any cross-worker sharing.
			s := scratchPool.Get().(*core.Scratch)
			defer scratchPool.Put(s)
			for i := range next {
				if err := runCell(&oc.Results[i], i, cells[i], s, errs); err != nil {
					if !opts.KeepGoing {
						failed.Do(func() { close(abort) })
					}
					continue
				}
				oc.Done[i] = true
				prog.step()
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case next <- i:
			attempted++
		case <-abort:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	return finishOutcome(ctx, oc, errs, attempted, len(cells), opts, prog)
}

// finishOutcome assembles the Outcome shared by the sequential and
// parallel paths: collect per-cell errors in grid order, classify the
// run as complete/incomplete, and pick the error to surface.
func finishOutcome[T any](ctx context.Context, oc *Outcome[T], errs []*CellError,
	attempted, total int, opts Options, prog *progress) (*Outcome[T], error) {
	for _, e := range errs {
		if e != nil {
			oc.Errs = append(oc.Errs, e)
		}
	}
	sort.Slice(oc.Errs, func(i, j int) bool { return oc.Errs[i].Index < oc.Errs[j].Index })

	if err := context.Cause(ctx); err != nil {
		oc.Incomplete = true
		return oc, err
	}
	if !opts.KeepGoing && len(oc.Errs) > 0 {
		oc.Incomplete = true
		return oc, oc.Errs[0]
	}
	if attempted < total {
		// Aborted without a recorded error or cancellation: the
		// failing worker's error lands before wg.Wait returns, so this
		// is unreachable — but classify defensively rather than lie
		// about completeness.
		oc.Incomplete = true
		return oc, nil
	}
	if len(oc.Errs) == 0 {
		prog.finish()
	}
	return oc, nil
}

// runCell executes one cell, converting a panic into a structured
// CellError so a bad cell fails its sweep (or, under KeepGoing, only
// itself) instead of killing the process from a worker goroutine.
func runCell[T any](out *T, i int, c Cell[T], s *core.Scratch, errs []*CellError) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			errs[i] = &CellError{Index: i, Label: c.Label, Panicked: true, Err: err}
		}
	}()
	v, err := c.Run(s)
	if err != nil {
		errs[i] = &CellError{Index: i, Label: c.Label, Err: err}
		return err
	}
	*out = v
	return nil
}

// progress is the throttled done/total + ETA reporter. The wall clock
// here only shapes log lines, never results.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int
	done  int
	start time.Time
	last  time.Time
}

const progressEvery = 250 * time.Millisecond

func newProgress(w io.Writer, label string, total int) *progress {
	if label == "" {
		label = "sweep"
	}
	return &progress{w: w, label: label, total: total, start: time.Now()}
}

func (p *progress) step() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	now := time.Now()
	if now.Sub(p.last) < progressEvery || p.done == p.total {
		return // the final cell is reported by finish's summary line
	}
	p.last = now
	elapsed := now.Sub(p.start)
	eta := time.Duration(0)
	if p.done > 0 {
		eta = time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
	}
	fmt.Fprintf(p.w, "%s: %d/%d (%.0f%%) elapsed %s eta %s\n",
		p.label, p.done, p.total, 100*float64(p.done)/float64(p.total),
		elapsed.Round(time.Millisecond), eta.Round(time.Millisecond))
}

func (p *progress) finish() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done < p.total {
		// Error path already reported; nothing to summarise.
		return
	}
	fmt.Fprintf(p.w, "%s: done (%d cells in %s)\n",
		p.label, p.total, time.Since(p.start).Round(time.Millisecond))
}
