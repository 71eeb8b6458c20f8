package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCancelMidGrid is the cancellation contract test: a context
// cancelled partway through a grid (a) stops feeding new cells, (b)
// returns the cells that did complete with Incomplete set — partial
// results are flagged, never silently truncated — and (c) leaks no
// goroutines (every worker has exited when RunContext returns).
func TestCancelMidGrid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int32
			const n = 64
			cells := make([]Cell[int], n)
			for i := range cells {
				cells[i] = Cell[int]{
					Label: fmt.Sprintf("cell%d", i),
					Run: func(*core.Scratch) (int, error) {
						// Cancel once a few cells are in flight; later
						// cells must then never start.
						if started.Add(1) == 8 {
							cancel()
						}
						return i * i, nil
					},
				}
			}
			oc, err := RunContext(ctx, cells, Options{Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep returned err=%v, want context.Canceled", err)
			}
			if !oc.Incomplete {
				t.Fatal("cancelled sweep not flagged Incomplete")
			}
			if got := oc.NumDone(); got == 0 || got == n {
				t.Fatalf("mid-grid cancel completed %d/%d cells, want partial", got, n)
			}
			for i, done := range oc.Done {
				if done && oc.Results[i] != i*i {
					t.Fatalf("completed cell %d has wrong result %d", i, oc.Results[i])
				}
				if !done && oc.Results[i] != 0 {
					t.Fatalf("unfinished cell %d has non-zero result %d", i, oc.Results[i])
				}
			}

			// No goroutine leaks: workers exit before RunContext
			// returns. NumGoroutine is noisy (test framework, GC), so
			// poll briefly before declaring a leak.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if runtime.NumGoroutine() <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after cancel",
						before, runtime.NumGoroutine())
				}
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestCancelBeforeStart: a context cancelled before the sweep begins
// attempts nothing and reports Incomplete.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	cells := []Cell[int]{{Label: "never", Run: func(*core.Scratch) (int, error) {
		ran = true
		return 1, nil
	}}}
	oc, err := RunContext(ctx, cells, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) || !oc.Incomplete {
		t.Fatalf("pre-cancelled sweep: err=%v incomplete=%v", err, oc.Incomplete)
	}
	if ran || oc.NumDone() != 0 {
		t.Fatal("pre-cancelled sweep ran a cell")
	}
}

// TestCancelCause propagates a WithCancelCause cause, so a server
// drain can distinguish "client went away" from "shutting down".
func TestCancelCause(t *testing.T) {
	drain := errors.New("server draining")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(drain)
	_, err := RunContext(ctx, []Cell[int]{{Label: "c", Run: func(*core.Scratch) (int, error) {
		return 0, nil
	}}}, Options{Workers: 2})
	if !errors.Is(err, drain) {
		t.Fatalf("cause lost: %v", err)
	}
}

// TestKeepGoingMergesCompletedCells: under KeepGoing, failing and
// panicking cells become structured CellErrors carrying their grid
// coordinates while every other cell still completes, deterministically
// in grid order.
func TestKeepGoingMergesCompletedCells(t *testing.T) {
	boom := errors.New("boom")
	const n = 16
	mk := func() []Cell[int] {
		cells := make([]Cell[int], n)
		for i := range cells {
			cells[i] = Cell[int]{
				Label: fmt.Sprintf("cell%d", i),
				Run: func(*core.Scratch) (int, error) {
					switch i {
					case 3:
						return 0, boom
					case 11:
						panic("kernel bug")
					}
					return i * i, nil
				},
			}
		}
		return cells
	}
	for _, workers := range []int{1, 4} {
		oc, err := RunContext(context.Background(), mk(), Options{Workers: workers, KeepGoing: true})
		if err != nil {
			t.Fatalf("workers=%d: KeepGoing surfaced aggregate error %v", workers, err)
		}
		if oc.Incomplete {
			t.Fatalf("workers=%d: KeepGoing run flagged Incomplete", workers)
		}
		if oc.NumDone() != n-2 {
			t.Fatalf("workers=%d: %d cells done, want %d", workers, oc.NumDone(), n-2)
		}
		for i, done := range oc.Done {
			if i == 3 || i == 11 {
				if done {
					t.Fatalf("workers=%d: failed cell %d marked done", workers, i)
				}
				continue
			}
			if !done || oc.Results[i] != i*i {
				t.Fatalf("workers=%d: cell %d done=%v result=%d", workers, i, done, oc.Results[i])
			}
		}
		if len(oc.Errs) != 2 {
			t.Fatalf("workers=%d: %d cell errors, want 2: %v", workers, len(oc.Errs), oc.Errs)
		}
		e3, e11 := oc.Errs[0], oc.Errs[1]
		if e3.Index != 3 || e3.Label != "cell3" || e3.Panicked || !errors.Is(e3, boom) {
			t.Fatalf("workers=%d: bad error coordinates: %+v", workers, e3)
		}
		if e11.Index != 11 || e11.Label != "cell11" || !e11.Panicked ||
			!strings.Contains(e11.Err.Error(), "kernel bug") {
			t.Fatalf("workers=%d: bad panic coordinates: %+v", workers, e11)
		}
		if !strings.Contains(e11.Error(), "cell 11 (cell11)") {
			t.Fatalf("workers=%d: CellError message lost coordinates: %v", workers, e11)
		}
	}
}

// TestAbortReturnsStructuredError: without KeepGoing the classic
// abort semantics hold, but the returned error is now a *CellError
// whose coordinates are inspectable, and the Outcome still carries the
// cells that finished before the abort.
func TestAbortReturnsStructuredError(t *testing.T) {
	boom := errors.New("boom")
	cells := make([]Cell[int], 8)
	for i := range cells {
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell%d", i),
			Run: func(*core.Scratch) (int, error) {
				if i == 2 {
					return 0, boom
				}
				return i, nil
			},
		}
	}
	oc, err := RunContext(context.Background(), cells, Options{Workers: 1})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("abort error is not a *CellError: %v", err)
	}
	if ce.Index != 2 || ce.Label != "cell2" || !errors.Is(ce, boom) {
		t.Fatalf("bad structured abort error: %+v", ce)
	}
	if !oc.Incomplete {
		t.Fatal("aborted sweep not flagged Incomplete")
	}
	if oc.NumDone() != 2 || !oc.Done[0] || !oc.Done[1] {
		t.Fatalf("sequential abort should keep cells 0..1: done=%v", oc.Done)
	}
}

// TestRunErrorIsLowestFailingIndex pins that the error an aborted
// parallel sweep reports does not depend on worker timing: cell 3 fails
// late (after yielding to the other workers), cells 5 and 40 fail at
// once and close the abort first, yet cell 3 — handed out before either
// could fail — always runs and always sorts first.
func TestRunErrorIsLowestFailingIndex(t *testing.T) {
	boom := errors.New("boom")
	cells := make([]Cell[int], 64)
	for i := range cells {
		cells[i] = Cell[int]{
			Label: fmt.Sprintf("cell%d", i),
			Run: func(*core.Scratch) (int, error) {
				switch i {
				case 3:
					for k := 0; k < 200; k++ {
						runtime.Gosched()
					}
					return 0, boom
				case 5, 40:
					return 0, boom
				}
				return i, nil
			},
		}
	}
	for rep := 0; rep < 200; rep++ {
		_, err := Run(cells, Options{Workers: 8})
		var ce *CellError
		if !errors.As(err, &ce) || ce.Index != 3 {
			t.Fatalf("repetition %d: abort reported %v, want cell 3", rep, err)
		}
	}
}
