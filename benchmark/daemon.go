package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// The daemon workloads drive internal/serve in process, behind
// httptest.NewServer, as one closed-loop client: the next POST is sent
// when the previous response has been read to its terminal line.
//
// daemon-sweep: every pass starts a server on a fresh state directory,
// POSTs the grid against the empty ledger (cold), POSTs it once more to
// verify the replay, drains, and reopens the journal. daemon-warm: set-up
// fills the ledger once and a pass is warmPosts POSTs at 100% hits. After
// a traced daemon-sweep pass the identical cells also run through a bare
// sweep.Run, which is the base of serve.tax_ratio.
//
// Nothing inside the server can be wrapped from here, so its layer
// numbers are what the client sees plus direct calls on a scratch Ledger.

var (
	daemonPolicies = []string{"frfs", "frfs-rq", "eft-rq"}
	daemonRates    = []float64{1, 2, 3, 4}
)

const (
	daemonFrameMS = 100
	daemonSigma   = 0.05
)

type daemonWorkload struct {
	warm       bool
	seed       int64
	sz         sizes
	scratchDir string

	body  []byte
	seeds []int64
	want  []serve.CellResult // the bare sweep's results, grid order

	// The running server (between passes only for daemon-warm).
	dir       string
	srv       *serve.Server
	ts        *httptest.Server
	coldLines [][]byte

	// Client-side observations over the traced passes.
	firstCellMS          []float64
	ndjsonBytes          int
	httpErrors, cellErrs int
}

func (w *daemonWorkload) cells() int { return len(daemonPolicies) * len(daemonRates) * len(w.seeds) }

func (w *daemonWorkload) setup(tr *tracer, traced bool) error {
	for i := 0; i < w.sz.daemonSeeds; i++ {
		w.seeds = append(w.seeds, w.seed*1000+int64(i)+1)
	}
	var err error
	if w.body, err = json.Marshal(serve.SweepRequest{
		Tenant:         "benchmark",
		Platform:       serve.PlatformSpec{Name: "zcu102", Cores: 3, FFTs: 2},
		Policies:       daemonPolicies,
		RatesJobsPerMS: daemonRates,
		FrameMS:        daemonFrameMS,
		Seeds:          w.seeds,
		JitterSigma:    daemonSigma,
		SkipExecution:  true,
	}); err != nil {
		return err
	}
	// The reference results, and the warm-up: the same cells through the
	// bare sweep engine fill the kernels' and pools' lazy state.
	if w.want, err = w.bareSweep(nil); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}
	if err := w.start(); err != nil {
		return err
	}
	var ps passStats
	if w.coldPost(nil, &ps); ps.failed > 0 {
		return fmt.Errorf("filling the ledger: %v", ps.notes)
	}
	return nil
}

// bareSweep runs the grid's cells through sweep.Run with no server: the
// same RateTrace, policy, seeds and Online sink serve's plan builds, and
// the same projection into serve.CellResult. With a tracer each cell
// closure is charged to the cell counter.
func (w *daemonWorkload) bareSweep(tr *tracer) ([]serve.CellResult, error) {
	cfg, err := platform.ZCU102(3, 2)
	if err != nil {
		return nil, err
	}
	specs, reg, programs := apps.Specs(), apps.Registry(), core.NewProgramCache()
	frame := vtime.Duration(daemonFrameMS) * vtime.Millisecond
	quantile := func(d *stats.Dist, p float64) int64 {
		v := d.Quantile(p)
		if v != v { // NaN: no records
			return 0
		}
		return int64(v)
	}
	var cells []sweep.Cell[serve.CellResult]
	for _, policyName := range daemonPolicies {
		for _, rate := range daemonRates {
			for _, seed := range w.seeds {
				run := func(s *core.Scratch) (serve.CellResult, error) {
					policy, err := sched.New(policyName, seed)
					if err != nil {
						return serve.CellResult{}, err
					}
					arrivals, err := workload.RateTrace(specs, rate, frame)
					if err != nil {
						return serve.CellResult{}, err
					}
					online := stats.NewOnline(0)
					r, err := sweep.Emulation{
						Config: cfg, Policy: policy, Registry: reg, Arrivals: arrivals,
						Seed: seed, JitterSigma: daemonSigma, SkipExecution: true,
						Programs: programs, Sink: online,
					}.Run(s)
					if err != nil {
						return serve.CellResult{}, err
					}
					return serve.CellResult{
						Policy: policyName, RateJobsPerMS: rate, Seed: seed,
						MakespanNS: int64(r.Makespan), Tasks: online.TasksSeen, Apps: online.AppsSeen,
						SchedInvoked: r.Sched.Invocations, SchedOps: r.Sched.TotalOps,
						MaxReady:  r.Sched.MaxReadyLen,
						WaitP50NS: quantile(&online.Wait, 0.50), WaitP99NS: quantile(&online.Wait, 0.99),
						RespP50NS: quantile(&online.Response, 0.50), RespP99NS: quantile(&online.Response, 0.99),
						EnergyJ: r.TotalEnergyJ(),
					}, nil
				}
				cell := sweep.Cell[serve.CellResult]{Label: fmt.Sprintf("%s@%g/seed%d", policyName, rate, seed), Run: run}
				if tr != nil {
					cell.Run = func(s *core.Scratch) (serve.CellResult, error) {
						start := time.Now()
						res, err := run(s)
						tr.cell.add(time.Since(start))
						return res, err
					}
				}
				cells = append(cells, cell)
			}
		}
	}
	var out []serve.CellResult
	err = tr.time("sweep.run", func() (err error) {
		out, err = sweep.Run(cells, sweep.Options{Workers: 1})
		return err
	})
	return out, err
}

// start brings a server up on a fresh state directory. Admission is wide
// open (nothing is throttled) and snapshots are off, so a response is
// accepted, the cell lines, done.
func (w *daemonWorkload) start() error {
	dir, err := os.MkdirTemp(w.scratchDir, "state-")
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		StateDir:      dir,
		Workers:       1,
		Admission:     serve.AdmissionConfig{MaxActive: 1, QueueDepth: 4, TenantRate: 1e6, TenantBurst: 1e6},
		SnapshotEvery: -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	w.dir, w.srv, w.ts = dir, srv, httptest.NewServer(srv.Handler())
	return nil
}

// stop drains the server (journal closed) and closes the listener; the
// state directory stays until removeDir.
func (w *daemonWorkload) stop(tr *tracer) error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := tr.time("serve.drain", func() error { return w.srv.Drain(ctx) })
	w.ts.Close()
	w.srv, w.ts = nil, nil
	return err
}

func (w *daemonWorkload) removeDir() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

// event is the part of one NDJSON response line the client reads.
type event struct {
	Type       string            `json:"type"`
	Result     *serve.CellResult `json:"result"`
	Cells      int               `json:"cells"`
	LedgerHits int               `json:"ledger_hits"`
	Computed   int               `json:"computed"`
	Failed     int               `json:"failed"`
}

// response is one POST as the client saw it.
type response struct {
	status    int
	lines     [][]byte // the "cell" lines, grid order
	results   []serve.CellResult
	cellErrs  int
	firstCell time.Duration // POST sent to first cell line read
	bytes     int
	done      event // the terminal line: "done" or "incomplete"
}

// tasks sums what the cell results report.
func (r *response) tasks() (n int64) {
	for _, c := range r.results {
		n += c.Tasks
	}
	return n
}

func (w *daemonWorkload) post() (*response, error) {
	start := time.Now()
	resp, err := w.ts.Client().Post(w.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(w.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &response{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return out, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		out.bytes += len(line) + 1
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("response line %q: %w", line, err)
		}
		switch ev.Type {
		case "cell":
			if len(out.lines) == 0 {
				out.firstCell = time.Since(start)
			}
			out.lines = append(out.lines, append([]byte(nil), line...))
			if ev.Result != nil {
				out.results = append(out.results, *ev.Result)
			}
		case "cell_error":
			out.cellErrs++
		case "done", "incomplete":
			out.done = ev
		}
	}
	return out, sc.Err()
}

// timedPost is post as one operation of ps, in a span when traced. It
// returns nil after recording the failure when the POST did not yield a
// complete 200 response.
func (w *daemonWorkload) timedPost(tr *tracer, span string, ps *passStats) (*response, time.Duration) {
	ps.ops++
	var r *response
	start := time.Now()
	err := tr.time(span, func() (err error) {
		r, err = w.post()
		return err
	})
	d := time.Since(start)
	switch {
	case err != nil:
		ps.fail("%s: %v", span, err)
		return nil, d
	case r.status != http.StatusOK:
		w.httpErrors++
		ps.fail("%s: HTTP %d", span, r.status)
		return nil, d
	case r.done.Type != "done":
		ps.fail("%s: stream ended with %q", span, r.done.Type)
		return nil, d
	}
	w.cellErrs += r.cellErrs
	return r, d
}

// coldPost sends the grid to an empty ledger and checks that every cell
// was computed and equals the bare sweep's result. Each cell is an
// operation of its own.
func (w *daemonWorkload) coldPost(tr *tracer, ps *passStats) (*response, time.Duration) {
	n := w.cells()
	ps.ops += n
	r, d := w.timedPost(tr, "serve.cold_post", ps)
	if r == nil {
		ps.failed += n
		return nil, d
	}
	if r.done.Computed != n || r.done.LedgerHits != 0 || r.done.Failed != 0 {
		ps.fail("cold POST: done reports computed=%d ledger_hits=%d failed=%d, want %d/0/0",
			r.done.Computed, r.done.LedgerHits, r.done.Failed, n)
	}
	for i := 0; i < n; i++ {
		if i >= len(r.results) || r.results[i] != w.want[i] {
			ps.fail("cold POST: cell %d differs from the bare sweep", i)
		}
	}
	if tr != nil {
		w.firstCellMS = append(w.firstCellMS, r.firstCell.Seconds()*1e3)
		w.ndjsonBytes = r.bytes
	}
	w.coldLines = r.lines
	return r, d
}

// warmPost repeats the POST against the filled ledger: every cell must be
// a ledger hit and its line byte-identical to the cold one.
func (w *daemonWorkload) warmPost(tr *tracer, ps *passStats) *response {
	r, _ := w.timedPost(tr, "serve.warm_post", ps)
	if r == nil {
		return nil
	}
	if n := w.cells(); r.done.LedgerHits != n || r.done.Computed != 0 {
		ps.fail("warm POST: done reports ledger_hits=%d computed=%d, want %d/0", r.done.LedgerHits, r.done.Computed, n)
	}
	if len(r.lines) != len(w.coldLines) {
		ps.fail("warm POST: %d cell lines, cold had %d", len(r.lines), len(w.coldLines))
		return r
	}
	for i := range r.lines {
		if !bytes.Equal(r.lines[i], w.coldLines[i]) {
			ps.fail("warm POST: cell line %d differs from the cold one", i)
			break
		}
	}
	return r
}

// digestCells folds the cell results a response carried.
func digestCells(r *response) string {
	d := newDigest()
	if r != nil {
		d.value(reflect.ValueOf(r.results))
	}
	return d.sum()
}

func (w *daemonWorkload) pass(tr *tracer) (passStats, error) {
	var ps passStats
	if w.warm {
		var last *response
		for i := 0; i < w.sz.warmPosts; i++ {
			if r := w.warmPost(tr, &ps); r != nil {
				last = r
				ps.tasks += r.tasks()
			}
		}
		ps.digest = digestCells(last)
		return ps, nil
	}

	if err := w.start(); err != nil {
		return ps, err
	}
	cold, d := w.coldPost(tr, &ps)
	ps.taskTime = d
	if cold != nil {
		ps.tasks = cold.tasks()
	}
	ps.digest = digestCells(cold)
	w.warmPost(tr, &ps)
	if err := w.stop(tr); err != nil {
		return ps, err
	}
	ps.ops++
	if entries, err := w.replayJournal(); err != nil {
		ps.fail("replaying the journal: %v", err)
	} else if entries != w.cells() {
		ps.fail("replayed journal holds %d cells, want %d", entries, w.cells())
	}
	if err := w.removeDir(); err != nil {
		return ps, err
	}
	return ps, nil
}

// check, on a traced pass, is the bare arm: the identical cells through
// sweep.Run with no server, outside the timed region so that a traced
// pass still measures what an untraced one does.
func (w *daemonWorkload) check(tr *tracer) []string {
	if tr == nil || w.warm {
		return nil
	}
	got, err := w.bareSweep(tr)
	if err != nil {
		return []string{fmt.Sprintf("bare sweep: %v", err)}
	}
	for i := range got {
		if got[i] != w.want[i] {
			return []string{fmt.Sprintf("bare sweep: cell %d is not repeatable", i)}
		}
	}
	return nil
}

// replayJournal reopens the drained server's journal, as a restarted
// daemon would, and reports how many cells it holds.
func (w *daemonWorkload) replayJournal() (int, error) {
	l, err := serve.OpenLedger(filepath.Join(w.dir, "ledger.ndjson"))
	if err != nil {
		return 0, err
	}
	n := l.Len()
	return n, l.Close()
}

func (w *daemonWorkload) close() error {
	err := w.stop(nil)
	if rerr := w.removeDir(); err == nil {
		err = rerr
	}
	return err
}

// layers turns the client-side spans into the serve.* and sweep.*
// metrics, and on daemon-sweep measures the ledger and the empty sweep
// directly.
func (w *daemonWorkload) layers(tr *tracer, m map[string]float64) error {
	warm := seconds64(tr.durations("serve.warm_post"))
	m["serve.warm_sweep_ms"] = median(warm) * 1e3
	m["serve.warm_p95_ms"] = quantileOf(warm, 0.95) * 1e3
	m["serve.http_errors"] = float64(w.httpErrors)
	m["serve.cell_errors"] = float64(w.cellErrs)
	if w.warm {
		return nil
	}
	n := float64(w.cells())
	cold := median(seconds64(tr.durations("serve.cold_post")))
	bare := median(seconds64(tr.durations("sweep.run")))
	passes := float64(len(tr.durations("sweep.run")))
	m["serve.cold_sweep_s"] = cold
	m["serve.bare_sweep_s"] = bare
	if bare > 0 {
		m["serve.tax_ratio"] = cold / bare
	}
	m["serve.cold_self_s"] = cold - bare
	m["serve.self_ms_per_cell"] = (cold - bare) / n * 1e3
	m["serve.first_cell_ms"] = median(w.firstCellMS)
	m["serve.drain_ms"] = median(seconds64(tr.durations("serve.drain"))) * 1e3
	m["serve.ndjson_bytes"] = float64(w.ndjsonBytes)
	m["sweep.cells"] = n
	if passes > 0 {
		m["sweep.cell_busy_s"] = tr.cell.seconds() / passes
		m["sweep.overhead_us_per_cell"] = (tr.total("sweep.run") - tr.cell.Busy).Seconds() / passes / n * 1e6
	}
	if err := w.measureLedger(m); err != nil {
		return fmt.Errorf("measuring the ledger: %w", err)
	}

	empty := make([]sweep.Cell[int], w.sz.emptyCells)
	for i := range empty {
		empty[i] = sweep.Cell[int]{Label: "empty", Run: func(*core.Scratch) (int, error) { return 0, nil }}
	}
	start := time.Now()
	if _, err := sweep.Run(empty, sweep.Options{Workers: 1}); err != nil {
		return err
	}
	m["sweep.empty_cell_us"] = time.Since(start).Seconds() / float64(len(empty)) * 1e6
	return nil
}

// measureLedger journals the grid's real payloads into a scratch journal
// in the benchmark's own directory (same disk as the state directories),
// timing every Put, then reads them back and reopens the journal.
func (w *daemonWorkload) measureLedger(m map[string]float64) error {
	dir, err := os.MkdirTemp(w.scratchDir, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ledger.ndjson")
	l, err := serve.OpenLedger(path)
	if err != nil {
		return err
	}
	var puts []float64
	for i, r := range w.want {
		payload, err := json.Marshal(r)
		if err != nil {
			l.Close()
			return err
		}
		start := time.Now()
		if err := l.Put(fmt.Sprintf("benchmark-cell-%d", i), payload); err != nil {
			l.Close()
			return err
		}
		puts = append(puts, time.Since(start).Seconds()*1e6)
	}
	m["serve.ledger_put_us_p50"] = median(puts)
	m["serve.ledger_put_us_p99"] = quantileOf(puts, 0.99)

	start := time.Now()
	for i := 0; i < w.sz.ledgerGets; i++ {
		if _, ok := l.Get(fmt.Sprintf("benchmark-cell-%d", i%len(w.want))); !ok {
			l.Close()
			return fmt.Errorf("ledger lost cell %d", i%len(w.want))
		}
	}
	m["serve.ledger_get_ns"] = float64(time.Since(start)) / float64(w.sz.ledgerGets)
	if err := l.Close(); err != nil {
		return err
	}

	start = time.Now()
	l, err = serve.OpenLedger(path)
	if err != nil {
		return err
	}
	m["serve.ledger_open_ms"] = time.Since(start).Seconds() * 1e3
	return l.Close()
}
