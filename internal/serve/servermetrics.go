package serve

// serverMetrics is the Server's /metrics family set: request-path counters
// and histograms fed inline by the handlers, plus scrape-time re-exports
// of the counters that already live elsewhere (engine cache, decode
// counters, ledger, coalescer, job registry) so one scrape shows the whole
// serving stack without double bookkeeping.

import "repro/internal/montecarlo"

type serverMetrics struct {
	reg *Registry

	// submissions counts POST /v1/sweeps outcomes: accepted, invalid,
	// too_large (413), overloaded (429), shutdown (503). Type and mode are
	// "unknown" when rejection happens before they parse.
	submissions *Counter
	// cells counts completed cells by provenance: engine, ledger, coalesced.
	cells *Counter
	// cellWait observes submission-to-cell-completion latency by
	// provenance; ledger hits land in the sub-millisecond buckets, which is
	// the dashboard view of what the ledger buys.
	cellWait *Histogram
	// requests observes wall time per endpoint (a synchronous submit's
	// observation spans its whole stream).
	requests *Histogram
	// jobs observes job lifetime (created -> terminal) by outcome.
	jobs *Histogram
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := NewRegistry()
	m := &serverMetrics{
		reg: reg,
		submissions: reg.NewCounter("vlq_serve_submissions_total",
			"Sweep submissions by experiment type, executor mode, and admission outcome.",
			"type", "mode", "outcome"),
		cells: reg.NewCounter("vlq_serve_cells_total",
			"Completed sweep cells by provenance (engine, ledger, coalesced).",
			"source"),
		cellWait: reg.NewHistogram("vlq_serve_cell_wait_seconds",
			"Latency from job submission to cell completion, by provenance.",
			DefaultLatencyBuckets, "source"),
		requests: reg.NewHistogram("vlq_serve_request_seconds",
			"HTTP request wall time by endpoint (submit spans the full stream).",
			DefaultLatencyBuckets, "endpoint"),
		jobs: reg.NewHistogram("vlq_serve_job_seconds",
			"Job lifetime from submission to terminal state, by outcome.",
			DefaultLatencyBuckets, "outcome"),
	}

	// Job registry and run-slot occupancy, read under s.mu at scrape time.
	countGauge := func(pick func(JobCounts) float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return pick(s.countsLocked())
		}
	}
	reg.NewGaugeFunc("vlq_serve_jobs_queued",
		"Jobs waiting for a run slot.",
		countGauge(func(c JobCounts) float64 { return float64(c.Queued) }))
	reg.NewGaugeFunc("vlq_serve_jobs_running",
		"Jobs currently holding a run slot.",
		countGauge(func(c JobCounts) float64 { return float64(c.Running) }))
	reg.NewGaugeFunc("vlq_serve_jobs_retained",
		"Jobs in the registry (queued, running, and retained finished).",
		countGauge(func(c JobCounts) float64 { return float64(c.Retained) }))
	reg.NewCounterFunc("vlq_serve_jobs_submitted_total",
		"Sweep jobs accepted since startup.",
		countGauge(func(c JobCounts) float64 { return float64(c.Submitted) }))
	reg.NewGaugeFunc("vlq_serve_run_slots_busy",
		"Run slots currently occupied.",
		func() float64 { return float64(len(s.slots)) })
	reg.NewGaugeFunc("vlq_serve_run_slots_total",
		"Run slot capacity (Config.MaxConcurrentJobs).",
		func() float64 { return float64(cap(s.slots)) })

	// Engine structure cache.
	reg.NewCounterFunc("vlq_engine_cache_builds_total",
		"Experiment structure constructions (engine cache misses).",
		func() float64 { return float64(s.en.CacheStats().Builds) })
	reg.NewCounterFunc("vlq_engine_cache_hits_total",
		"Engine cache lookups served from an existing entry.",
		func() float64 { return float64(s.en.CacheStats().Hits) })
	reg.NewCounterFunc("vlq_engine_cache_evictions_total",
		"Engine cache entries dropped by LRU eviction.",
		func() float64 { return float64(s.en.CacheStats().Evictions) })
	reg.NewGaugeFunc("vlq_engine_cache_entries",
		"Current engine cache population.",
		func() float64 { return float64(s.en.CacheStats().Entries) })
	reg.NewCounterFunc("vlq_engine_worker_states_total",
		"Worker states the engine has created; pool workers reuse idle ones across jobs.",
		func() float64 { return float64(s.en.CacheStats().WorkerStates) })

	// Decode pipeline (engine-run cells only; ledger and coalesced cells
	// did no decode work).
	decCounter := func(pick func(montecarlo.Counts) int) func() float64 {
		return func() float64 { return float64(pick(s.decodeCounts())) }
	}
	reg.NewCounterFunc("vlq_decode_shots_total",
		"Monte-Carlo shots decoded by engine-run cells.",
		decCounter(func(c montecarlo.Counts) int { return c.Trials }))
	reg.NewCounterFunc("vlq_decode_skipped_total",
		"Shots answered by the zero-defect fast path.",
		decCounter(func(c montecarlo.Counts) int { return c.Skipped }))
	reg.NewCounterFunc("vlq_decode_dedup_hits_total",
		"Shots replayed from a duplicate syndrome in the same batch.",
		decCounter(func(c montecarlo.Counts) int { return c.DedupHits }))

	// Result ledger and coalescer.
	reg.NewGaugeFunc("vlq_ledger_entries",
		"Distinct cell keys in the result ledger.",
		func() float64 { return float64(s.ledger.Stats().Entries) })
	reg.NewCounterFunc("vlq_ledger_hits_total",
		"Ledger lookups that found a stored cell.",
		func() float64 { return float64(s.ledger.Stats().Hits) })
	reg.NewCounterFunc("vlq_ledger_misses_total",
		"Ledger lookups that found nothing.",
		func() float64 { return float64(s.ledger.Stats().Misses) })
	reg.NewCounterFunc("vlq_ledger_appends_total",
		"Records accepted into the ledger.",
		func() float64 { return float64(s.ledger.Stats().Appends) })
	reg.NewCounterFunc("vlq_ledger_errors_total",
		"Ledger backend write failures (serving continues from memory).",
		func() float64 { return float64(s.ledger.Stats().Errors) })
	reg.NewCounterFunc("vlq_coalesce_hits_total",
		"Cells served from an identical in-flight execution on another job.",
		func() float64 { return float64(s.coal.hits.Load()) })
	reg.NewGaugeFunc("vlq_coalesce_pending",
		"Cell executions currently in flight in the coalescer.",
		func() float64 { return float64(s.coal.pendingCount()) })

	return m
}
