package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ErrDraining is the cancellation cause used when SIGTERM drains the
// server: running sweeps finish their in-flight cells (journaling each
// one), stop feeding new cells, and report incomplete.
var ErrDraining = errors.New("server draining")

// Options configure the daemon.
type Options struct {
	// StateDir holds the cell ledger journal; required. It is the
	// daemon's only persistent state.
	StateDir string
	// Workers bounds each sweep's worker pool (0 = GOMAXPROCS).
	Workers int
	// Admission sizes the two-layer gate.
	Admission AdmissionConfig
	// SnapshotEvery throttles mid-run snapshot events (default 250ms,
	// negative disables).
	SnapshotEvery time.Duration
	// DefaultTimeout bounds requests that set no timeout_ms (default
	// 5 minutes).
	DefaultTimeout time.Duration
}

// Server is the emulation service: it holds the process-wide compiled
// program cache warm across requests and runs admitted sweeps through
// the bounded pool, journaling every completed cell.
type Server struct {
	opts      Options
	admission *Admission
	ledger    *Ledger
	programs  *core.ProgramCache
	specs     map[string]*appmodel.AppSpec
	reg       *kernels.Registry

	// drainCtx is cancelled (with ErrDraining) by Drain; in-flight
	// request handlers watch it and new requests are refused after it.
	drainCtx  context.Context
	drainFn   context.CancelCauseFunc
	inflight  sync.WaitGroup
	drainOnce sync.Once
}

// New opens the ledger under opts.StateDir and builds the server.
func New(opts Options) (*Server, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("serve: StateDir is required")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 250 * time.Millisecond
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 5 * time.Minute
	}
	ledger, err := OpenLedger(filepath.Join(opts.StateDir, "ledger.ndjson"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Server{
		opts:      opts,
		admission: NewAdmission(opts.Admission, nil),
		ledger:    ledger,
		programs:  core.NewProgramCache(),
		specs:     apps.Specs(),
		reg:       apps.Registry(),
		drainCtx:  ctx,
		drainFn:   cancel,
	}, nil
}

// Ledger exposes the cell store (tests and /statz).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Handler returns the HTTP surface:
//
//	POST /v1/sweeps  — run a sweep, streaming NDJSON events
//	GET  /healthz    — 200 while serving, 503 once draining
//	GET  /statz      — admission gate + ledger counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Admission Stats `json:"admission"`
			Ledger    struct {
				Cells int   `json:"cells"`
				Hits  int64 `json:"hits"`
			} `json:"ledger"`
			Programs int  `json:"compiled_programs"`
			Draining bool `json:"draining"`
		}{
			Admission: s.admission.Snapshot(),
			Ledger: struct {
				Cells int   `json:"cells"`
				Hits  int64 `json:"hits"`
			}{s.ledger.Len(), s.ledger.Hits()},
			Programs: s.programs.Len(),
			Draining: s.draining(),
		})
	})
	return mux
}

func (s *Server) draining() bool { return s.drainCtx.Err() != nil }

// Drain is the SIGTERM path: refuse new work, cancel running sweeps at
// cell granularity (in-flight cells finish and are journaled — the
// fsync-per-append ledger IS the checkpoint), wait for every handler
// to finish streaming, then close the journal. The passed context
// bounds the wait; Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainFn(ErrDraining) })
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.ledger.Close()
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
}

// event is one NDJSON response line. Exactly one of the payload groups
// is populated, keyed by Type:
//
//	accepted   — cells (the grid size)
//	snapshot   — done/total cells, plus tasks_seen/apps_seen/wait_mean_ns
//	             summed over the completed computed cells — a cell is in
//	             those totals iff it is in done and was not a ledger hit.
//	             No quantiles: P² states do not merge, and every cell
//	             line carries its own. Volatile: wall-clock paced,
//	             excluded from byte-identity comparisons
//	cell       — index, label, deterministic CellResult (grid order)
//	cell_error — index, label, error (grid order, interleaved with cell)
//	incomplete — the run was cut short (drain, disconnect, deadline)
//	done       — terminal summary: cells, ledger_hits, computed, failed
type event struct {
	Type  string `json:"type"`
	Cells int    `json:"cells,omitempty"`

	// snapshot fields
	Done       int     `json:"done,omitempty"`
	Total      int     `json:"total,omitempty"`
	TasksSeen  int64   `json:"tasks_seen,omitempty"`
	AppsSeen   int64   `json:"apps_seen,omitempty"`
	WaitMeanNS float64 `json:"wait_mean_ns,omitempty"`

	// cell / cell_error fields
	Index  *int        `json:"index,omitempty"`
	Label  string      `json:"label,omitempty"`
	Result *CellResult `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`

	// incomplete / done fields (absent means zero)
	Reason     string `json:"reason,omitempty"`
	LedgerHits int    `json:"ledger_hits,omitempty"`
	Computed   int    `json:"computed,omitempty"`
	Failed     int    `json:"failed,omitempty"`
}

// handleSweep is POST /v1/sweeps.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := planSweep(req, s.specs, s.reg)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	// Request context: client disconnect ∪ per-request deadline ∪
	// server drain, each with a distinguishable cause.
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancelTimeout := context.WithTimeoutCause(r.Context(), timeout,
		errors.New("request deadline exceeded"))
	defer cancelTimeout()
	ctx, cancelDrain := context.WithCancelCause(ctx)
	defer cancelDrain(nil)
	stopDrainWatch := context.AfterFunc(s.drainCtx, func() { cancelDrain(ErrDraining) })
	defer stopDrainWatch()

	// Admission: tenant bucket then bounded queue; both reject with a
	// computed Retry-After rather than buffering unboundedly.
	release, retryAfter, err := s.admission.Acquire(ctx, req.Tenant)
	if err != nil {
		if errors.Is(err, ErrTenantThrottled) || errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer release()

	s.streamSweep(ctx, w, plan)
}

// streamSweep runs an admitted plan and streams NDJSON events.
//
// Ordering guarantees: cell and cell_error events are emitted in grid
// order (cell i never precedes cell i-1's event), regardless of worker
// completion order, so the concatenation of cell events is the
// deterministic merged report. snapshot events interleave anywhere
// before the terminal event; exactly one terminal event (incomplete or
// done) ends the stream.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, plan *sweepPlan) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	em := &emitter{w: w, pending: make(map[int][]byte), total: len(plan.cells)}
	em.send(event{Type: "accepted", Cells: len(plan.cells)})

	// Resolve ledger hits up front: those cells are never recomputed.
	// Misses become sweep cells, run KeepGoing so one broken cell
	// reports per-coordinate instead of sinking the grid.
	hits := 0
	var missIdx []int
	var cells []sweep.Cell[CellResult]
	prog := &progress{total: len(plan.cells)}
	for i := range plan.cells {
		pc := plan.cells[i]
		if raw, ok := s.ledger.Get(pc.hash); ok {
			hits++
			em.resolveRaw(i, pc.label, raw)
			continue
		}
		i := i
		missIdx = append(missIdx, i)
		cells = append(cells, sweep.Cell[CellResult]{
			Label: pc.label,
			Run: func(sc *core.Scratch) (CellResult, error) {
				res, online, err := plan.runCell(pc, s.programs, sc)
				if err != nil {
					return res, err
				}
				raw, merr := json.Marshal(res)
				if merr != nil {
					return res, merr
				}
				// Journal before emitting: anything the client has
				// seen is durable, so a crash after this line costs
				// this cell nothing on resume.
				if perr := s.ledger.Put(pc.hash, raw); perr != nil {
					return res, perr
				}
				em.resolveRaw(i, pc.label, raw)
				prog.cellDone(online)
				return res, nil
			},
		})
	}
	prog.done = hits // no worker runs yet: set before the pool starts

	// Snapshot streaming: a ticker goroutine reads the progress tally
	// mid-run so the client observes progress. Stopped (and drained)
	// before the terminal event so no snapshot trails it.
	var snapWG sync.WaitGroup
	snapStop := make(chan struct{})
	if s.opts.SnapshotEvery > 0 && len(cells) > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(s.opts.SnapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-tick.C:
					em.send(prog.snapshotEvent())
				}
			}
		}()
	}

	oc, runErr := sweep.RunContext(ctx, cells, sweep.Options{
		Workers:   s.opts.Workers,
		Label:     plan.req.Label,
		KeepGoing: true,
	})
	close(snapStop)
	snapWG.Wait()

	// Failed cells: emit structured per-coordinate errors, grid order.
	for _, ce := range oc.Errs {
		em.resolveErr(missIdx[ce.Index], ce.Label, ce.Err)
	}

	computed := oc.NumDone()
	if runErr != nil {
		// Cut short: flush what resolved contiguously, then say so —
		// partial results are always explicitly flagged, never
		// silently truncated.
		em.send(event{
			Type: "incomplete", Reason: runErr.Error(),
			Cells: len(plan.cells), LedgerHits: hits, Computed: computed,
			Failed: len(oc.Errs),
		})
		return
	}
	em.send(event{
		Type: "done", Cells: len(plan.cells),
		LedgerHits: hits, Computed: computed, Failed: len(oc.Errs),
	})
}

// emitter serializes NDJSON writes and enforces the grid-order
// guarantee: per-cell events buffer until every lower-indexed cell has
// resolved, then flush in index order. Snapshot/terminal events bypass
// the ordering but share the write lock (a flusher per line keeps the
// stream live for long sweeps).
type emitter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	next    int
	total   int
	pending map[int][]byte
}

// send writes one out-of-band (snapshot/terminal/accepted) event.
func (e *emitter) send(ev event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.writeLine(b)
}

// resolveRaw resolves cell i with its (already-marshaled) result — the
// exact ledger bytes, so replayed and computed cells are
// indistinguishable on the wire.
func (e *emitter) resolveRaw(i int, label string, raw []byte) {
	idx := i
	line, err := json.Marshal(struct {
		Type   string          `json:"type"`
		Index  *int            `json:"index,omitempty"`
		Label  string          `json:"label,omitempty"`
		Result json.RawMessage `json:"result,omitempty"`
	}{"cell", &idx, label, raw})
	if err != nil {
		return
	}
	e.resolve(i, line)
}

// resolveErr resolves cell i with its structured failure.
func (e *emitter) resolveErr(i int, label string, cause error) {
	idx := i
	line, err := json.Marshal(event{Type: "cell_error", Index: &idx, Label: label, Error: cause.Error()})
	if err != nil {
		return
	}
	e.resolve(i, line)
}

func (e *emitter) resolve(i int, line []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending[i] = line
	for {
		b, ok := e.pending[e.next]
		if !ok {
			return
		}
		delete(e.pending, e.next)
		e.next++
		e.writeLine(b)
	}
}

// writeLine appends the newline and flushes; callers hold e.mu.
func (e *emitter) writeLine(b []byte) {
	e.w.Write(append(b, '\n'))
	if f, ok := e.w.(http.Flusher); ok {
		f.Flush()
	}
}

// progress is the request-wide tally behind snapshot events. A computed
// cell folds its own Online's totals in exactly once, in one lock
// acquisition, after its Ledger.Put succeeded — so a cell is in tasks,
// apps and the wait moments iff it is in done, and work the client will
// never receive (a cell_error) is never counted. Ledger hits add to
// done only: their records were folded by whichever request computed
// them. Everything here merges exactly (counts and sums), whatever
// order workers finish in.
type progress struct {
	mu      sync.Mutex
	done    int
	total   int
	tasks   int64
	apps    int64
	waitN   int64
	waitSum float64
}

func (p *progress) cellDone(o *stats.Online) {
	n := o.Wait.Count()
	p.mu.Lock()
	p.done++
	p.tasks += o.TasksSeen
	p.apps += o.AppsSeen
	p.waitN += n
	p.waitSum += o.Wait.Mean() * float64(n)
	p.mu.Unlock()
}

func (p *progress) snapshotEvent() event {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev := event{Type: "snapshot", Done: p.done, Total: p.total, TasksSeen: p.tasks, AppsSeen: p.apps}
	if p.waitN > 0 {
		ev.WaitMeanNS = p.waitSum / float64(p.waitN)
	}
	return ev
}
