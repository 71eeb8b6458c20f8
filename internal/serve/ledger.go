// Package serve is the emulation-as-a-service layer: a long-lived
// HTTP/NDJSON front end over the sweep engine with admission control,
// backpressure, cancellation, and crash-safe resume.
//
// The engine underneath (internal/core + internal/sweep) is already
// O(in-flight) memory and deterministic by construction; this package
// adds what a daemon needs around it — per-tenant token buckets and a
// bounded global queue so overload degrades into 429+Retry-After
// instead of unbounded buffering, context plumbing so client
// disconnects and server drain abort sweeps at cell granularity, a
// content-hashed cell ledger so a killed sweep resumes recomputing
// zero finished cells, and mid-run progress snapshots (totals over the
// cells finished so far) so clients observe progress instead of polling
// a silent process.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ledgerVersion is folded into every cell hash. Bump it whenever the
// cell result encoding or the emulation semantics behind it change:
// old journal entries then simply stop matching instead of resuming a
// sweep with stale bytes.
const ledgerVersion = "emulated-cell-v1"

// ledgerEntry is one journal line: a content hash naming the cell and
// the cell's marshaled result, byte-preserved via RawMessage so a
// replayed result is emitted exactly as the original run emitted it.
type ledgerEntry struct {
	Hash   string          `json:"h"`
	Result json.RawMessage `json:"r"`
}

// Ledger is the crash-safe cell result store: an append-only,
// fsync-per-append NDJSON journal keyed by content hash of the cell
// spec. Because the key is derived from everything that determines a
// cell's result (spec, schedule knobs, seed, encoding version — see
// cellHash) and cells are deterministic, a ledger hit IS the cell's
// result: resume never recomputes, and the merged output of a resumed
// sweep is byte-identical to an uninterrupted run.
//
// Crash safety: entries are single appended lines followed by
// File.Sync, so a kill -9 can lose at most the entry being written;
// a torn trailing line (no newline, or truncated JSON) is detected on
// open and ignored — the cell just reruns. The journal is the only
// persistent state the daemon has.
type Ledger struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string][]byte
	hits    int64
}

// OpenLedger opens (creating if needed) the journal at path and
// replays it into memory. A torn final line — the signature of a crash
// mid-append — is skipped; any earlier malformed line is corruption
// and errors out loudly rather than silently dropping results.
func OpenLedger(path string) (*Ledger, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{f: f, entries: make(map[string][]byte)}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay loads every complete journal line.
func (l *Ledger) replay() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	lineNo := 0
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a torn append from a crash. The
			// partial entry is unusable; its cell reruns on resume.
			return nil
		}
		if err != nil {
			return fmt.Errorf("ledger: reading journal: %w", err)
		}
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e ledgerEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Hash == "" || len(e.Result) == 0 {
			// A malformed *interior* line cannot come from a torn
			// append (those are always last); refuse to guess.
			if _, peekErr := r.Peek(1); peekErr == io.EOF {
				return nil
			}
			return fmt.Errorf("ledger: corrupt journal line %d", lineNo)
		}
		// Duplicate hashes are legal (two crashed runs of the same
		// grid); results are deterministic so the bytes agree.
		l.entries[e.Hash] = append([]byte(nil), e.Result...)
	}
}

// Get returns the stored result bytes for a cell hash. A hit is
// counted: the hit counter is how the resume differential proves zero
// recomputation.
func (l *Ledger) Get(hash string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.entries[hash]
	if ok {
		l.hits++
	}
	return b, ok
}

// Put journals one completed cell: append a single line, fsync, then
// publish to the in-memory index. The fsync-before-publish order is
// the checkpoint guarantee — a result the daemon has ever served from
// the index is durable on disk.
func (l *Ledger) Put(hash string, result []byte) error {
	entry, err := json.Marshal(ledgerEntry{Hash: hash, Result: result})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	entry = append(entry, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("ledger: closed")
	}
	if _, err := l.f.Write(entry); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: fsync: %w", err)
	}
	l.entries[hash] = append([]byte(nil), result...)
	return nil
}

// Len is the number of distinct cells journaled.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Hits is the cumulative ledger hit count since open.
func (l *Ledger) Hits() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits
}

// Close syncs and closes the journal. Further Puts fail; Gets keep
// answering from memory (drain finishes streaming from the index).
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
