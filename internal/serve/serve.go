// Package serve is the sweep-serving front end: an HTTP/JSON interface
// that turns the library's scheduler into a long-running service for the
// paper's threshold (Fig. 11) and sensitivity (Fig. 12) experiments.
//
// One process-wide montecarlo.Engine backs every request, so the
// structure/noise split pays off across clients: the first sweep of a
// (scheme, distance, rounds) experiment builds its circuit, fault
// Structure, and decoding-graph topology; every later sweep touching the
// same experiment — from any client — reweights cached structures and
// skips the builds entirely. Above the engine sit two more layers of
// dedup, both keyed by the canonical cell spec (montecarlo.CellKey plus
// the sweep-grid coordinates): a durable result ledger that answers
// previously finished cells without any engine work (file-backed ledgers
// replay across restarts), and request coalescing, which shares one
// execution between identical cells in flight on concurrent jobs. All
// three layers are bit-invisible: a cell served from the ledger or a
// coalesced run is byte-identical to running it cold, which is exactly
// why results are safe to memoize. GET /v1/stats exposes the engine,
// ledger, and coalescing counters; GET /metrics serves the same (and
// more) in Prometheus text format.
//
// The API:
//
//	POST   /v1/sweeps              submit a sweep (SweepRequest JSON);
//	                               streams CellRecord NDJSON lines (or SSE
//	                               with ?stream=sse) as cells finish and
//	                               ends with the JobStatus; with ?async=1
//	                               returns 202 + JobStatus immediately
//	GET    /v1/sweeps/{id}         JobStatus snapshot
//	GET    /v1/sweeps/{id}/results replay finished cells and follow live
//	DELETE /v1/sweeps/{id}         cancel (running cells stop at their next batch)
//	GET    /v1/stats               engine cache, decode pipeline, ledger,
//	                               and job registry counters
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness
//
// A synchronous POST ties the job to the request: if the client
// disconnects mid-stream, the job's context is cancelled, the pool starts
// no more cells, and running cells abort at their next batch without
// emitting a partial record. Async jobs detach from their request and are
// cancelled only by DELETE or server shutdown; observers on /results can
// come and go freely. A request's shard_shots field splits fabric-mode
// cells into leased shard units; local mode rejects it.
//
// Backpressure is explicit: at most Config.MaxConcurrentJobs sweeps run at
// once, at most Config.QueueDepth wait behind them, and submissions beyond
// that are rejected with 429 rather than queued unboundedly. Finished jobs
// are retained (bounded by Config.RetainJobs) for status and replay, then
// evicted oldest-first.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// maxBodyBytes bounds a submission body; larger bodies are rejected with
// 413 naming the limit.
const maxBodyBytes = 1 << 20

// Config tunes a Server. The zero value serves with a fresh default
// engine, an in-memory result ledger, 2 concurrent sweeps, a queue of 8,
// and 64 retained jobs.
type Config struct {
	// Engine is the process-wide Monte-Carlo engine shared by every
	// request (a fresh montecarlo.NewEngine if nil). Sharing it is the
	// point of the server: its structure cache is what lets repeated
	// sweeps skip circuit and decoding-graph builds.
	Engine *montecarlo.Engine
	// Ledger is the durable result store consulted before any cell runs
	// and appended to as cells finish (nil: a fresh in-memory ledger, so
	// repeat cells are always deduplicated for the life of the process).
	// Pass OpenFileLedger's result for persistence across restarts. The
	// ledger's lifecycle belongs to the caller — Server.Close does not
	// close it (vlqserve closes its file ledger on shutdown).
	Ledger Ledger
	// MaxConcurrentJobs bounds sweeps running at once (default 2). Each
	// job gets its own scheduler pool, so this times DefaultPoolWidth is
	// the worst-case decode parallelism.
	MaxConcurrentJobs int
	// QueueDepth bounds jobs waiting for a run slot; once
	// running+queued reaches MaxConcurrentJobs+QueueDepth, POST
	// /v1/sweeps returns 429. Zero means the default of 8; a negative
	// value disables queueing entirely (submissions are rejected
	// whenever every run slot is busy).
	QueueDepth int
	// DefaultPoolWidth is the scheduler pool width for requests that do
	// not set Jobs (0 = GOMAXPROCS).
	DefaultPoolWidth int
	// RetainJobs bounds finished jobs kept for status/replay (default 64);
	// older finished jobs are evicted as new ones finish.
	RetainJobs int
	// Fabric, when set, enables "mode":"fabric" submissions: such sweeps
	// are leased to the coordinator's registered workers instead of the
	// local pool, and GET /v1/stats grows a fabric section. The hub's
	// lifecycle belongs to the caller (vlqserve closes it on shutdown).
	Fabric *fabric.Hub
}

func (c Config) withDefaults() Config {
	if c.Engine == nil {
		c.Engine = montecarlo.NewEngine()
	}
	if c.Ledger == nil {
		c.Ledger = NewMemLedger()
	}
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 64
	}
	return c
}

// Server is the HTTP front end. It implements http.Handler; mount it on
// any mux or serve it directly. Create with NewServer and Close it when
// done to cancel outstanding jobs.
type Server struct {
	cfg     Config
	en      *montecarlo.Engine
	ledger  Ledger
	coal    *coalescer
	met     *serverMetrics
	mux     *http.ServeMux
	baseCtx context.Context
	stop    context.CancelFunc
	slots   chan struct{}

	mu        sync.Mutex
	jobs      map[string]*job
	order     []*job // submission order, for oldest-first eviction
	submitted int64
	nextID    int

	// Process-wide decode counters, summed per engine-run cell across every
	// job and read by both GET /v1/stats and /metrics. Ledger-served and
	// coalesced cells do not add here — they did no decode work.
	decMu sync.Mutex
	dec   montecarlo.Counts

	// beforeRun, when non-nil, gates each job between acquiring its run
	// slot and executing cells — a test hook for holding jobs in the
	// running state deterministically. It must return promptly once the
	// context is done.
	beforeRun func(context.Context) error
}

// NewServer builds a Server from cfg (zero value is usable).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		en:      cfg.Engine,
		ledger:  cfg.Ledger,
		coal:    newCoalescer(),
		mux:     http.NewServeMux(),
		baseCtx: ctx,
		stop:    cancel,
		slots:   make(chan struct{}, cfg.MaxConcurrentJobs),
		jobs:    make(map[string]*job),
	}
	s.met = newServerMetrics(s)
	s.mux.HandleFunc("POST /v1/sweeps", s.timed("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.timed("status", s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.timed("cancel", s.handleCancel))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.timed("results", s.handleResults))
	s.mux.HandleFunc("GET /v1/stats", s.timed("stats", s.handleStats))
	s.mux.Handle("GET /metrics", s.met.reg)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine returns the server's shared Monte-Carlo engine.
func (s *Server) Engine() *montecarlo.Engine { return s.en }

// Metrics returns the server's metric registry, for callers embedding the
// server that want to register their own families on the same /metrics
// exposition.
func (s *Server) Metrics() *Registry { return s.met.reg }

// Close cancels every outstanding job and makes further submissions fail
// with 503. In-flight streams end after their current cell. The engine
// and ledger are left open — their lifecycles belong to the caller.
func (s *Server) Close() { s.stop() }

// timed wraps a handler with the per-request latency histogram. For a
// synchronous submit the observation covers the whole stream — the
// latency a client actually experiences — which is what cmd/vlqload
// measures from the other side.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.met.requests.Observe(time.Since(start).Seconds(), endpoint)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// counts tallies the registry by state. Callers hold s.mu.
func (s *Server) countsLocked() JobCounts {
	c := JobCounts{Retained: len(s.jobs), Submitted: s.submitted}
	for _, j := range s.jobs {
		switch j.stateNow() {
		case StateQueued:
			c.Queued++
		case StateRunning:
			c.Running++
		}
	}
	return c
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// evictFinished drops the oldest finished jobs beyond the retention cap in
// one compaction pass over the order slice (the scan-and-splice it
// replaces was O(n²) under churn). Queued and running jobs are never
// evicted; evicted jobs get a belt-and-braces cancel so no evicted job
// can leave a context registered on baseCtx.
func (s *Server) evictFinished() {
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := 0
	for _, j := range s.order {
		if terminal(j.stateNow()) {
			finished++
		}
	}
	excess := finished - s.cfg.RetainJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && terminal(j.stateNow()) {
			delete(s.jobs, j.id)
			j.cancel()
			excess--
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil // release the tail for GC
	}
	s.order = kept
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.baseCtx.Err() != nil {
		s.met.submissions.Inc("unknown", "unknown", "shutdown")
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	var req SweepRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.met.submissions.Inc("unknown", "unknown", "too_large")
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		s.met.submissions.Inc("unknown", "unknown", "invalid")
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	typ, cells, err := buildCells(req)
	if err != nil {
		s.met.submissions.Inc("unknown", "unknown", "invalid")
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode := req.Mode
	switch mode {
	case "":
		mode = "local"
	case "local":
	case "fabric":
		if s.cfg.Fabric == nil {
			s.met.submissions.Inc(typ, mode, "invalid")
			writeError(w, http.StatusBadRequest,
				"fabric mode requested but this server has no fabric coordinator (start with -fabric-listen)")
			return
		}
	default:
		s.met.submissions.Inc(typ, "unknown", "invalid")
		writeError(w, http.StatusBadRequest, "unknown mode %q (want %q or %q)", mode, "local", "fabric")
		return
	}
	if mode == "local" && req.ShardShots > 0 {
		s.met.submissions.Inc(typ, mode, "invalid")
		writeError(w, http.StatusBadRequest, "shard_shots requires mode fabric")
		return
	}
	width := req.Jobs
	if width == 0 {
		width = s.cfg.DefaultPoolWidth
	}

	// Admission control: reject rather than queue unboundedly. The sum is
	// what bounds the system — comparing running and queued separately
	// would admit a whole burst that lands before any job's execute
	// goroutine has moved it to running.
	s.mu.Lock()
	c := s.countsLocked()
	if c.Running+c.Queued >= s.cfg.MaxConcurrentJobs+s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.submissions.Inc(typ, mode, "overloaded")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d running, %d queued)", c.Running, c.Queued)
		return
	}
	s.nextID++
	s.submitted++
	jb := newJob(fmt.Sprintf("sw-%06d", s.nextID), typ, mode, cells, width, req.ShardShots, s.baseCtx)
	jb.noCache = req.NoCache
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb)
	s.mu.Unlock()
	s.met.submissions.Inc(typ, mode, "accepted")

	go s.execute(jb)

	if q := r.URL.Query(); q.Get("async") == "1" || q.Get("async") == "true" {
		w.Header().Set("X-Sweep-Job", jb.id)
		writeJSON(w, http.StatusAccepted, jb.status())
		return
	}
	// Synchronous submission: the stream owns the job — a client that
	// disconnects mid-stream cancels it.
	s.streamJob(w, r, jb, true)
}

// execute drives one job through its lifecycle on a background goroutine:
// wait for a run slot, resolve its cells (ledger, coalesced, or engine),
// and record the terminal state.
func (s *Server) execute(jb *job) {
	select {
	case s.slots <- struct{}{}:
	case <-jb.ctx.Done():
		jb.finish(StateCancelled, jb.ctx.Err())
		s.met.jobs.Observe(time.Since(jb.created).Seconds(), StateCancelled)
		s.evictFinished()
		return
	}
	defer func() { <-s.slots }()
	jb.setRunning()
	var err error
	if s.beforeRun != nil {
		err = s.beforeRun(jb.ctx)
	}
	if err == nil {
		err = s.runCells(jb)
	}
	var outcome string
	switch {
	case jb.ctx.Err() != nil:
		jb.finish(StateCancelled, jb.ctx.Err())
		outcome = StateCancelled
	case err != nil:
		jb.finish(StateFailed, err)
		outcome = StateFailed
	default:
		jb.finish(StateDone, nil)
		outcome = StateDone
	}
	s.met.jobs.Observe(time.Since(jb.created).Seconds(), outcome)
	s.evictFinished()
}

// Cell provenance labels (CellRecord.Source and the metrics source label;
// the engine's wire form is "" so pre-ledger clients see unchanged bytes).
const (
	sourceEngine    = "engine"
	sourceLedger    = "ledger"
	sourceCoalesced = "coalesced"
)

// runCells resolves every cell of a job, cheapest layer first: the
// ledger answers finished cells instantly, the coalescer subscribes to
// identical cells already in flight on other jobs, and only the
// remainder — cells this job leads — touch the engine (or fabric). The
// loop re-plans cells whose leader aborted, so every cell is eventually
// served or the job's context ends; a cell key never runs on two
// executors at once.
func (s *Server) runCells(jb *job) error {
	n := len(jb.cells)
	keys := make([]string, n)
	for i := range jb.cells {
		keys[i] = cellKey(jb.cells[i], jb.shardShots)
	}
	resolved := make([]bool, n)

	// emit stamps the job-local index and provenance on a canonical
	// record and streams it.
	emit := func(i int, rec CellRecord, source string) {
		rec.Index = i
		if source == sourceEngine {
			rec.Source = "" // wire default: engine-run cells are unmarked
		} else {
			rec.Source = source
		}
		resolved[i] = true
		jb.appendCell(rec)
		s.met.cells.Inc(source)
		s.met.cellWait.Observe(time.Since(jb.created).Seconds(), source)
	}

	for {
		if err := jb.ctx.Err(); err != nil {
			return err
		}
		// Plan every unresolved cell. entries[i] is the pending-map entry a
		// leading or following cell holds.
		var owned, waits []int
		entries := make(map[int]*pendingCell)
		for i := range n {
			if resolved[i] {
				continue
			}
			if jb.noCache {
				owned = append(owned, i)
				continue
			}
			switch plan, rec, e := s.coal.planCell(s.ledger, keys[i]); plan {
			case planLedger:
				emit(i, rec, sourceLedger)
			case planLead:
				owned = append(owned, i)
				entries[i] = e
			case planFollow:
				waits = append(waits, i)
				entries[i] = e
			}
		}
		if len(owned) == 0 && len(waits) == 0 {
			return nil
		}

		var runErr error
		if len(owned) > 0 {
			sub := make([]sched.Job, len(owned))
			for k, i := range owned {
				sub[k] = jb.cells[i]
			}
			completed := make([]bool, len(owned))
			onResult := func(r sched.CellResult) {
				i := owned[r.Index]
				completed[r.Index] = true
				s.decMu.Lock()
				s.dec.Add(r.Result.Counts)
				s.decMu.Unlock()
				rec := canonicalRecord(cellRecord(r))
				if e := entries[i]; e != nil {
					// Ledger first, then retire the pending entry: a planner
					// probing between the two still finds the record.
					if rec.Error == "" {
						s.ledger.Put(keys[i], rec)
					}
					s.coal.resolve(keys[i], e, rec)
				}
				emit(i, rec, sourceEngine)
			}
			if jb.mode == "fabric" {
				// Fabric mode leases the cells, split per shard_shots, to the
				// coordinator's workers; the merged cells stream back through
				// the identical callback. Unsharded, they are bit-identical to
				// the local path.
				var run *fabric.Run
				run, runErr = s.cfg.Fabric.Submit(sub, fabric.RunOptions{
					ShardShots: jb.shardShots,
					OnResult:   onResult,
				})
				if runErr == nil {
					_, runErr = run.Wait(jb.ctx)
				}
			} else {
				scheduler := sched.New(s.en, sched.Options{
					Jobs:     jb.poolWidth,
					OnResult: onResult,
				})
				// Cancellation granularity: a DELETE or an owning client's
				// disconnect skips unstarted cells and aborts in-flight ones at
				// their next batch, which are dropped without a partial
				// CellRecord.
				_, runErr = scheduler.RunContext(jb.ctx, sub)
			}
			// Cells this job led but never finished (cancel, failure) must
			// release their pending entries so a follower can take over.
			for k, i := range owned {
				if !completed[k] {
					if e := entries[i]; e != nil {
						s.coal.abort(keys[i], e)
					}
				}
			}
		}

		for _, i := range waits {
			e := entries[i]
			select {
			case <-e.done:
				if e.ok {
					s.coal.hits.Add(1)
					emit(i, e.rec, sourceCoalesced)
				}
				// Leader aborted: leave the cell unresolved; the next pass
				// re-plans it (and may claim leadership).
			case <-jb.ctx.Done():
				return jb.ctx.Err()
			}
		}
		if runErr != nil {
			return runErr
		}
	}
}

// streamJob writes the job's cells to the client as they finish — NDJSON
// by default, SSE with ?stream=sse — replaying anything already recorded,
// and ends with the terminal JobStatus. When own is true the client's
// disconnect cancels the job (synchronous POST); observers pass false.
// Write failures end the stream immediately (cancelling the job only when
// own): a dead connection must not keep the encoder goroutine alive until
// the job ends, and a mid-write failure must not be followed by more
// writes onto a torn line.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, jb *job, own bool) {
	sse := r.URL.Query().Get("stream") == "sse"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Sweep-Job", jb.id)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // deliver headers (and the job id) before the first cell lands

	enc := json.NewEncoder(w)
	writeEvent := func(event string, v any) error {
		if !sse {
			return enc.Encode(v)
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		return err
	}
	fail := func() {
		if own {
			jb.cancel()
		}
	}

	cursor := 0
	for {
		recs, state, updated := jb.next(cursor)
		for _, rec := range recs {
			if err := writeEvent("cell", rec); err != nil {
				fail()
				return
			}
		}
		cursor += len(recs)
		if len(recs) > 0 {
			flush()
		}
		if terminal(state) {
			if err := writeEvent("done", jb.status()); err != nil {
				fail()
				return
			}
			flush()
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			fail()
			return
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such sweep job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such sweep job %q", r.PathValue("id"))
		return
	}
	jb.cancel()
	// The pool observes cancellation at the next cell boundary, so the
	// status returned here may still read "running"; poll GET until it
	// settles on "cancelled" (or "done" if completion won the race).
	writeJSON(w, http.StatusOK, jb.status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such sweep job %q", r.PathValue("id"))
		return
	}
	s.streamJob(w, r, jb, false)
}

// ledgerSection assembles the /v1/stats ledger block.
func (s *Server) ledgerSection() LedgerSection {
	return LedgerSection{
		LedgerStats:     s.ledger.Stats(),
		CoalesceHits:    s.coal.hits.Load(),
		CoalescePending: s.coal.pendingCount(),
	}
}

// decodeCounts returns a snapshot of the process-wide decode counters.
func (s *Server) decodeCounts() montecarlo.Counts {
	s.decMu.Lock()
	defer s.decMu.Unlock()
	return s.dec
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := s.countsLocked()
	s.mu.Unlock()
	dec := s.decodeCounts()
	resp := StatsResponse{
		Engine: s.en.CacheStats(),
		Decode: DecodeStats{
			Shots:     int64(dec.Trials),
			Skipped:   int64(dec.Skipped),
			DedupHits: int64(dec.DedupHits),
			Decoder:   dec.Stats,
		},
		Jobs:   counts,
		Ledger: s.ledgerSection(),
	}
	if s.cfg.Fabric != nil {
		fs := s.cfg.Fabric.Stats()
		resp.Fabric = &fs
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
