package serve

// The durable result ledger: a content-addressed store of finished sweep
// cells keyed by their canonical spec and shard count (see cellKey /
// montecarlo.CellKey). Results are deterministic by construction — equal
// keys mean bit-equal cells at any pool width or fabric worker count — so the
// ledger can answer a resubmitted cell without touching the engine, and a
// file-backed ledger replays every finished cell across process restarts.
//
// Records are stored canonicalized (Index and Source cleared; cells that
// errored are never stored), and the server re-stamps the job-local index
// and "ledger" source on the way out. The JSONL backend is append-only:
// one {"key":...,"cell":...} object per line, the whole file replayed
// into memory on open with last-entry-wins semantics, torn or corrupt
// trailing lines skipped and a torn final line newline-terminated (a crash
// mid-append must not poison the store or the next append).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// LedgerStats is the observable state of a Ledger, surfaced in the
// "ledger" section of GET /v1/stats and re-exported on /metrics.
type LedgerStats struct {
	// Backend names the implementation: "memory" or the backing file path.
	Backend string `json:"backend"`
	// Entries is the current number of distinct cell keys stored.
	Entries int `json:"entries"`
	// Hits and Misses count Get lookups since the process started (replayed
	// entries served after a restart count as hits like any other).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Appends counts records accepted by Put; Errors counts backend write
	// failures (the in-memory copy stays authoritative when the disk write
	// fails, so serving continues degraded rather than failing requests).
	Appends int64 `json:"appends"`
	Errors  int64 `json:"errors"`
}

// Ledger is the durable result store behind the serving layer. Get and
// Put must be safe for concurrent use. Implementations must treat stored
// records as immutable.
type Ledger interface {
	// Get returns the stored record for a canonical cell key.
	Get(key string) (CellRecord, bool)
	// Put stores a canonicalized record. Backend failures are absorbed
	// (counted in Stats().Errors); the in-memory view always updates.
	Put(key string, rec CellRecord)
	// Stats returns a point-in-time snapshot of the counters.
	Stats() LedgerStats
	// Close releases backend resources (a no-op for the memory ledger).
	Close() error
}

// memLedger is the in-memory ledger every Server runs by default, and the
// core the file backend builds on.
type memLedger struct {
	backend string
	mu      sync.Mutex
	cells   map[string]CellRecord
	hits    atomic.Int64
	misses  atomic.Int64
	appends atomic.Int64
	errors  atomic.Int64
	// persist, when non-nil, is called under mu with each new record —
	// the file backend's append hook. A false return counts an error.
	persist func(key string, rec CellRecord) error
}

// NewMemLedger returns an empty in-memory ledger: coalescing-adjacent
// memoization for the life of the process, no persistence.
func NewMemLedger() Ledger {
	return &memLedger{backend: "memory", cells: make(map[string]CellRecord)}
}

func (l *memLedger) Get(key string) (CellRecord, bool) {
	l.mu.Lock()
	rec, ok := l.cells[key]
	l.mu.Unlock()
	if ok {
		l.hits.Add(1)
	} else {
		l.misses.Add(1)
	}
	return rec, ok
}

func (l *memLedger) Put(key string, rec CellRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.cells[key]; dup {
		// Deterministic results make duplicate Puts byte-equal re-derivations
		// (a no_cache run, a coalescing race); the first write stands.
		return
	}
	l.cells[key] = rec
	l.appends.Add(1)
	if l.persist != nil {
		if err := l.persist(key, rec); err != nil {
			l.errors.Add(1)
		}
	}
}

func (l *memLedger) Stats() LedgerStats {
	l.mu.Lock()
	entries := len(l.cells)
	l.mu.Unlock()
	return LedgerStats{
		Backend: l.backend,
		Entries: entries,
		Hits:    l.hits.Load(),
		Misses:  l.misses.Load(),
		Appends: l.appends.Load(),
		Errors:  l.errors.Load(),
	}
}

func (l *memLedger) Close() error { return nil }

// ledgerEntry is one JSONL line of the file backend.
type ledgerEntry struct {
	Key  string     `json:"key"`
	Cell CellRecord `json:"cell"`
}

// fileLedger is the JSONL-backed ledger: memLedger semantics plus an
// append-only log replayed on open.
type fileLedger struct {
	memLedger
	f *os.File
}

// OpenFileLedger opens (creating if absent) the append-only JSONL ledger
// at path and replays its entries: submitting a cell the file already
// holds is served from it without engine work, across restarts. Corrupt
// or torn lines are skipped, not fatal.
func OpenFileLedger(path string) (Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &fileLedger{
		memLedger: memLedger{backend: path, cells: make(map[string]CellRecord)},
		f:         f,
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var e ledgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Key == "" {
			continue // torn tail from a crash mid-append, or hand-edited junk
		}
		l.cells[e.Key] = e.Cell
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: replaying %s: %w", path, err)
	}
	if err := terminateTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: repairing %s: %w", path, err)
	}
	l.persist = l.appendLine
	return l, nil
}

// terminateTail ends a torn final line — a crash mid-append leaves one
// without its newline — so the next append starts a line of its own
// instead of being glued onto the fragment and dropped as corrupt on the
// following replay. The fragment itself stays and is skipped on replay.
func terminateTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// appendLine writes one entry; called under memLedger.mu, so lines never
// interleave.
func (l *fileLedger) appendLine(key string, rec CellRecord) error {
	buf, err := json.Marshal(ledgerEntry{Key: key, Cell: rec})
	if err != nil {
		return err
	}
	_, err = l.f.Write(append(buf, '\n'))
	return err
}

func (l *fileLedger) Close() error { return l.f.Close() }

// canonicalRecord strips the job-local fields from a cell record before
// it enters the ledger or a coalescing handoff: Index is the submitting
// job's cell position and Source describes how *that* job obtained the
// bytes; neither is part of the cell's identity.
func canonicalRecord(rec CellRecord) CellRecord {
	rec.Index = 0
	rec.Source = ""
	return rec
}
