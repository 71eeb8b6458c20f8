package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	if opts.Admission.TenantRate == 0 {
		opts.Admission = AdmissionConfig{
			MaxActive: 2, QueueDepth: 4, TenantRate: 1000, TenantBurst: 1000,
		}
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postSweep(t *testing.T, url string, req SweepRequest) (int, http.Header, []string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, lines
}

// eventsOf unmarshals every line into a loose map keyed by type.
func eventsOf(t *testing.T, lines []string) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &out[i]); err != nil {
			t.Fatalf("line %d not JSON: %q", i, l)
		}
	}
	return out
}

// cellLines filters the deterministic merged output: the cell and
// cell_error events, which the service guarantees appear in grid order.
func cellLines(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.Contains(l, `"type":"cell"`) || strings.Contains(l, `"type":"cell_error"`) {
			out = append(out, l)
		}
	}
	return out
}

func terminalOf(t *testing.T, lines []string) map[string]any {
	t.Helper()
	evs := eventsOf(t, lines)
	if len(evs) == 0 {
		t.Fatal("empty stream")
	}
	last := evs[len(evs)-1]
	if ty := last["type"]; ty != "done" && ty != "incomplete" {
		t.Fatalf("stream does not end in a terminal event: %v", last)
	}
	return last
}

func intField(m map[string]any, k string) int {
	v, _ := m[k].(float64)
	return int(v)
}

// TestSweepStreamEndToEnd: a full request streams accepted → cells in
// grid order → done, with per-cell results that look like emulations.
func TestSweepStreamEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, hdr, lines := postSweep(t, ts.URL, perfRequest())
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	evs := eventsOf(t, lines)
	if evs[0]["type"] != "accepted" || intField(evs[0], "cells") != 8 {
		t.Fatalf("first event: %v", evs[0])
	}
	term := terminalOf(t, lines)
	if term["type"] != "done" || intField(term, "computed") != 8 ||
		intField(term, "ledger_hits") != 0 || intField(term, "failed") != 0 {
		t.Fatalf("terminal event: %v", term)
	}
	cells := cellLines(lines)
	if len(cells) != 8 {
		t.Fatalf("%d cell events, want 8", len(cells))
	}
	for i, l := range cells {
		var ev struct {
			Index  int        `json:"index"`
			Result CellResult `json:"result"`
		}
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Index != i {
			t.Fatalf("cell event %d has index %d: grid order violated", i, ev.Index)
		}
		if ev.Result.MakespanNS <= 0 || ev.Result.Tasks <= 0 {
			t.Fatalf("cell %d result implausible: %+v", i, ev.Result)
		}
	}
}

// TestCrashResumeDifferential is the package-level half of the
// acceptance criterion (the SIGKILL half lives in make serve-smoke):
// a daemon restarted over a half-written journal recomputes zero
// journaled cells, and its merged cell output is byte-identical to an
// uninterrupted run's.
func TestCrashResumeDifferential(t *testing.T) {
	req := perfRequest()

	// Uninterrupted run on state dir A.
	dirA := t.TempDir()
	_, tsA := newTestServer(t, Options{StateDir: dirA})
	_, _, linesA := postSweep(t, tsA.URL, req)
	wantCells := cellLines(linesA)
	if len(wantCells) != 8 {
		t.Fatalf("baseline: %d cells", len(wantCells))
	}

	// Simulate the crash: state dir B's journal is a prefix of A's —
	// exactly what kill -9 after K fsynced appends leaves behind
	// (plus, here, a torn final line for good measure).
	journalA, err := os.ReadFile(filepath.Join(dirA, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	entries := bytes.SplitAfter(journalA, []byte("\n"))
	const k = 5
	if len(entries) < 8 {
		t.Fatalf("journal has %d lines", len(entries))
	}
	prefix := bytes.Join(entries[:k], nil)
	prefix = append(prefix, []byte(`{"h":"torn`)...)
	dirB := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirB, "ledger.ndjson"), prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restarted daemon on B: resume.
	_, tsB := newTestServer(t, Options{StateDir: dirB})
	_, _, linesB := postSweep(t, tsB.URL, req)
	term := terminalOf(t, linesB)
	if got := intField(term, "ledger_hits"); got != k {
		t.Fatalf("resume replayed %d cells from the ledger, want %d", got, k)
	}
	if got := intField(term, "computed"); got != 8-k {
		t.Fatalf("resume recomputed %d cells, want %d", got, 8-k)
	}

	// The differential: merged output byte-identical.
	gotCells := cellLines(linesB)
	if len(gotCells) != len(wantCells) {
		t.Fatalf("cell counts differ: %d vs %d", len(gotCells), len(wantCells))
	}
	for i := range wantCells {
		if gotCells[i] != wantCells[i] {
			t.Fatalf("cell line %d diverged after resume:\n  uninterrupted: %s\n  resumed:       %s",
				i, wantCells[i], gotCells[i])
		}
	}

	// And a second identical request is served entirely from the
	// ledger: zero recomputation, same bytes again.
	_, _, linesC := postSweep(t, tsB.URL, req)
	termC := terminalOf(t, linesC)
	if intField(termC, "computed") != 0 || intField(termC, "ledger_hits") != 8 {
		t.Fatalf("warm rerun recomputed: %v", termC)
	}
	for i, l := range cellLines(linesC) {
		if l != wantCells[i] {
			t.Fatalf("warm rerun cell %d diverged", i)
		}
	}
}

// TestAdmission429: tenant throttling and queue saturation both
// surface as 429 with a computed Retry-After header, and never hang.
func TestAdmission429(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Admission: AdmissionConfig{MaxActive: 1, QueueDepth: 0, TenantRate: 0.001, TenantBurst: 1},
	})

	// Pin the only active slot so the next request hits the full queue.
	// A distinct tenant keeps this probe from spending tenant "t"'s
	// token (the bucket is debited before the queue check).
	release, _, err := s.admission.Acquire(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}
	qreq := perfRequest()
	qreq.Tenant = "queued"
	status, hdr, _ := postSweep(t, ts.URL, qreq)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d", status)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q", hdr.Get("Retry-After"))
	}
	release()

	// Tenant bucket: burst 1 at ~0 refill — tenant "t"'s first request
	// runs, the second is throttled.
	status, _, _ = postSweep(t, ts.URL, perfRequest())
	if status != http.StatusOK {
		t.Fatalf("first tenant request: status %d", status)
	}
	status, hdr, _ = postSweep(t, ts.URL, perfRequest())
	if status != http.StatusTooManyRequests {
		t.Fatalf("throttled tenant: status %d", status)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("tenant Retry-After %q", hdr.Get("Retry-After"))
	}
}

// TestBadRequests: validation failures are 400s before admission — a
// malformed request consumes no tenant tokens and no queue slot.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	bad := perfRequest()
	bad.Policies = []string{"lottery"}
	status, _, _ := postSweep(t, ts.URL, bad)
	if status != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d", status)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	if st := s.admission.Snapshot(); st.Tenants != 0 {
		t.Fatalf("rejected requests touched the admission gate: %+v", st)
	}
}

// slowRequest is a grid big enough to still be running when the test
// drains or disconnects (32 timing-only cells, each tens of ms here).
func slowRequest() SweepRequest {
	return SweepRequest{
		Tenant:         "t",
		Platform:       PlatformSpec{Name: "synthetic", Cores: 16, FFTs: 4},
		Policies:       []string{"frfs", "eft"},
		RatesJobsPerMS: []float64{4, 6},
		FrameMS:        100,
		Seeds:          []int64{1, 2, 3, 4, 5, 6, 7, 8},
		SkipExecution:  true,
	}
}

// TestDrainMidSweep: SIGTERM semantics. A sweep interrupted by Drain
// finishes its in-flight cells, streams an explicit incomplete event,
// and the drained server refuses new work — while everything already
// journaled survives for the next process.
func TestDrainMidSweep(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, Workers: 2})

	body, _ := json.Marshal(slowRequest())
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil || !strings.Contains(first, `"accepted"`) {
		t.Fatalf("first line %q, err %v", first, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var lines []string
	for {
		l, err := br.ReadString('\n')
		if l != "" {
			lines = append(lines, strings.TrimRight(l, "\n"))
		}
		if err != nil {
			break
		}
	}
	term := terminalOf(t, lines)
	if term["type"] != "incomplete" {
		t.Fatalf("drained sweep ended with %v, want incomplete", term)
	}
	if !strings.Contains(term["reason"].(string), "draining") {
		t.Fatalf("incomplete reason %v", term["reason"])
	}

	// Drained server refuses new work and reports unhealthy.
	status, _, _ := postSweep(t, ts.URL, perfRequest())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST: status %d", status)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d", hresp.StatusCode)
	}

	// The journal holds exactly the done cells (fsynced before being
	// streamed), ready for the next process to resume from.
	l, err := OpenLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got, done := l.Len(), intField(term, "computed")+intField(term, "ledger_hits"); got != done {
		t.Fatalf("journal has %d cells, terminal event says %d", got, done)
	}
}

// TestClientDisconnectReleasesSlot: a client that goes away mid-stream
// cancels its sweep; the admission slot frees and the server keeps
// serving others.
func TestClientDisconnectReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Admission: AdmissionConfig{MaxActive: 1, QueueDepth: 0, TenantRate: 1000, TenantBurst: 1000},
	})

	body, _ := json.Marshal(slowRequest())
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweeps", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.admission.Snapshot(); st.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released after disconnect: %+v", s.admission.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status, _, _ := postSweep(t, ts.URL, perfRequest()); status != http.StatusOK {
		t.Fatalf("server unusable after a disconnect: status %d", status)
	}
}

// TestStatz sanity-checks the observability surface.
func TestStatz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _, _ := postSweep(t, ts.URL, perfRequest()); status != http.StatusOK {
		t.Fatal("seed sweep failed")
	}
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Ledger struct {
			Cells int `json:"cells"`
		} `json:"ledger"`
		Programs int  `json:"compiled_programs"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ledger.Cells != 8 || st.Draining {
		t.Fatalf("statz: %+v", st)
	}
	if st.Programs == 0 {
		t.Fatal("program cache cold after a sweep — the warm-cache contract is broken")
	}
}

// snapshotsOf returns the stream's snapshot events in order, failing if
// one trails the terminal event.
func snapshotsOf(t *testing.T, lines []string) []map[string]any {
	t.Helper()
	evs := eventsOf(t, lines)
	var snaps []map[string]any
	for i, ev := range evs {
		if ev["type"] != "snapshot" {
			continue
		}
		if i == len(evs)-1 {
			t.Fatal("snapshot after terminal event")
		}
		for _, q := range []string{"wait_p50_ns", "resp_p50_ns", "resp_p99_ns"} {
			if _, has := ev[q]; has {
				t.Fatalf("snapshot carries %s; quantiles live on cell lines only: %v", q, ev)
			}
		}
		snaps = append(snaps, ev)
	}
	return snaps
}

// firstHalf is slowRequest restricted to its first policy: the first
// half of the full grid (policy-major order), used to pre-journal it.
func firstHalf() SweepRequest {
	req := slowRequest()
	req.Policies = req.Policies[:1]
	return req
}

// TestSnapshotEvents: with an aggressive snapshot interval a sweep
// emits progress snapshots before its terminal event, and the totals
// they carry are cell-granular — monotone, bounded by the grid, and
// made of exactly the computed cells counted in done.
func TestSnapshotEvents(t *testing.T) {
	// One worker, so computed cells complete in grid order and every
	// snapshot's tasks_seen is checkable against a prefix sum.
	_, ts := newTestServer(t, Options{SnapshotEvery: 5 * time.Millisecond, Workers: 1})

	check := func(lines []string, hits int) {
		t.Helper()
		cells := cellLines(lines)
		total := len(cells)
		var tasks []int64 // per computed cell, grid order
		for _, l := range cells[hits:] {
			var ev struct {
				Result CellResult `json:"result"`
			}
			if err := json.Unmarshal([]byte(l), &ev); err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, ev.Result.Tasks)
		}
		snaps := snapshotsOf(t, lines)
		if len(snaps) == 0 {
			t.Fatal("no snapshot events at a 5ms interval")
		}
		prevDone := hits
		for _, sn := range snaps {
			done := intField(sn, "done")
			if done < prevDone || done > total || intField(sn, "total") != total {
				t.Fatalf("snapshot done=%d after %d, total=%d (grid %d): %v", done, prevDone, intField(sn, "total"), total, sn)
			}
			prevDone = done
			var want int64
			for _, n := range tasks[:done-hits] {
				want += n
			}
			if got := int64(intField(sn, "tasks_seen")); got != want {
				t.Fatalf("snapshot at done=%d (hits %d) has tasks_seen=%d, want %d — the sum over its computed cells: %v",
					done, hits, got, want, sn)
			}
			if (done > hits) != (sn["wait_mean_ns"] != nil && sn["apps_seen"] != nil) {
				t.Fatalf("snapshot aggregates out of step with done=%d hits=%d: %v", done, hits, sn)
			}
		}
		if prevDone == hits {
			t.Fatalf("no snapshot saw a computed cell complete: %v", snaps[len(snaps)-1])
		}
	}

	// Cold: nothing journaled, so done starts at 0.
	_, _, lines := postSweep(t, ts.URL, firstHalf())
	check(lines, 0)
	// Half-warm: the first half of the grid is now in the ledger, so
	// snapshots start at done = hits and tasks_seen counts only the
	// computed half.
	_, _, lines = postSweep(t, ts.URL, slowRequest())
	if term := terminalOf(t, lines); intField(term, "ledger_hits") != 16 || intField(term, "computed") != 16 {
		t.Fatalf("half-warm terminal: %v", term)
	}
	check(lines, 16)
}

// TestSnapshotExcludesUnjournaledCells: a cell whose Ledger.Put fails
// is reported as cell_error, so its records must never reach a
// snapshot — the tally is updated only after the journal write.
func TestSnapshotExcludesUnjournaledCells(t *testing.T) {
	s, ts := newTestServer(t, Options{SnapshotEvery: 5 * time.Millisecond})
	if status, _, _ := postSweep(t, ts.URL, firstHalf()); status != http.StatusOK {
		t.Fatal("warming sweep failed")
	}
	// A closed journal keeps answering Gets and fails every Put.
	if err := s.Ledger().Close(); err != nil {
		t.Fatal(err)
	}
	_, _, lines := postSweep(t, ts.URL, slowRequest())
	term := terminalOf(t, lines)
	if term["type"] != "done" || intField(term, "ledger_hits") != 16 ||
		intField(term, "computed") != 0 || intField(term, "failed") != 16 {
		t.Fatalf("terminal event: %v", term)
	}
	if n := strings.Count(strings.Join(lines, "\n"), `"type":"cell_error"`); n != 16 {
		t.Fatalf("%d cell_error lines, want 16", n)
	}
	snaps := snapshotsOf(t, lines)
	if len(snaps) == 0 {
		t.Fatal("no snapshot events at a 5ms interval")
	}
	for _, sn := range snaps {
		if intField(sn, "done") != 16 || intField(sn, "tasks_seen") != 0 || intField(sn, "apps_seen") != 0 {
			t.Fatalf("snapshot counts work the client never received: %v", sn)
		}
	}
}

// TestProgressFold pins the tally's arithmetic on hand-built cells.
func TestProgressFold(t *testing.T) {
	// cell builds an Online holding one task per wait (ns) and the
	// given number of apps, trimmed at warmup.
	cell := func(warmup vtime.Time, apps int, waits ...int64) *stats.Online {
		o := stats.NewOnline(warmup)
		for _, w := range waits {
			o.RecordTask(stats.TaskRecord{Ready: 10, Start: vtime.Time(10 + w), End: vtime.Time(20 + w)})
		}
		for i := 0; i < apps; i++ {
			o.RecordApp(stats.AppRecord{Arrival: 10, Done: 50})
		}
		return o
	}
	cases := []struct {
		name     string
		hits     int
		cells    []*stats.Online
		done     int
		tasks    int64
		apps     int64
		waitMean float64 // a NaN would fail the equality below
	}{
		{name: "no cell completed", hits: 3, done: 3},
		{name: "one cell", cells: []*stats.Online{cell(0, 2, 100, 300)},
			done: 1, tasks: 2, apps: 2, waitMean: 200},
		{name: "count-weighted mean", cells: []*stats.Online{cell(0, 1, 100), cell(0, 2, 400, 400, 400)},
			done: 2, tasks: 4, apps: 3, waitMean: 325},
		{name: "all-trimmed cell adds totals but no wait", hits: 1,
			cells: []*stats.Online{cell(0, 1, 100, 300), cell(1000, 4, 7, 7, 7)},
			done:  3, tasks: 5, apps: 5, waitMean: 200},
		{name: "empty cell", cells: []*stats.Online{cell(0, 0)}, done: 1},
	}
	for _, tc := range cases {
		p := &progress{done: tc.hits, total: 9}
		for _, o := range tc.cells {
			p.cellDone(o)
		}
		ev := p.snapshotEvent()
		if ev.Type != "snapshot" || ev.Done != tc.done || ev.Total != 9 ||
			ev.TasksSeen != tc.tasks || ev.AppsSeen != tc.apps || ev.WaitMeanNS != tc.waitMean {
			t.Errorf("%s: snapshot %+v, want done=%d tasks=%d apps=%d wait_mean=%v",
				tc.name, ev, tc.done, tc.tasks, tc.apps, tc.waitMean)
		}
	}
}

// TestCellAndJournalGolden pins perfRequest()'s deterministic bytes —
// the concatenated cell lines at any worker count, and the journal
// file at one worker — to hashes recorded at commit 0643413, before
// snapshot plumbing was cut from per-record folds to per-cell totals.
func TestCellAndJournalGolden(t *testing.T) {
	const (
		cellSHA    = "ffa642c374e0455117a147b26caac9ce1c47d115199ed47e03587cc6bc708e89"
		journalSHA = "bc4107f0323e8261df6c244553d21aed0bfff3c00dbb8761b411f42786794c1d"
	)
	sha := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		_, ts := newTestServer(t, Options{StateDir: dir, Workers: workers})
		_, _, lines := postSweep(t, ts.URL, perfRequest())
		if got := sha([]byte(strings.Join(cellLines(lines), "\n") + "\n")); got != cellSHA {
			t.Errorf("workers=%d: cell lines hash %s, want %s", workers, got, cellSHA)
		}
		if workers != 1 {
			continue // journal order follows completion order
		}
		journal, err := os.ReadFile(filepath.Join(dir, "ledger.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(journal); got != journalSHA {
			t.Errorf("journal hash %s, want %s", got, journalSHA)
		}
	}
}
