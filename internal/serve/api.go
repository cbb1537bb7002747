package serve

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/decoder"
	"repro/internal/extract"
	"repro/internal/fabric"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// maxCells bounds one submission; a request expanding to a larger grid is
// rejected with 400 rather than silently truncated or allowed to occupy a
// worker pool for hours.
const maxCells = 4096

// SweepRequest is the body of POST /v1/sweeps: one threshold (Fig. 11) or
// sensitivity (Fig. 12) sweep job. Zero fields take the documented
// defaults, so the smallest useful threshold submission is `{}` and the
// smallest sensitivity submission is `{"type":"sensitivity","panel":
// "cavity-t1"}`.
type SweepRequest struct {
	// Type selects the experiment: "threshold" (default) or "sensitivity".
	Type string `json:"type,omitempty"`
	// Mode selects the executor: "local" (default) runs the sweep on this
	// process's scheduler pool; "fabric" leases its cells to the workers
	// of the server's fabric coordinator (400 when the server was started
	// without one, e.g. vlqserve without -fabric-listen). Either way the
	// results are bit-identical — the executor is invisible in the bytes.
	Mode string `json:"mode,omitempty"`
	// Scheme names the extraction setup for threshold sweeps (default
	// "compact-interleaved"; see extract.Schemes for the five names).
	Scheme string `json:"scheme,omitempty"`
	// Panel names the Fig. 12 study for sensitivity sweeps (required for
	// them; see montecarlo.Panels for the seven names).
	Panel string `json:"panel,omitempty"`
	// Distances are the code distances (default 3,5,7 for threshold,
	// 3,5 for sensitivity).
	Distances []int `json:"distances,omitempty"`
	// Rates are the physical error rates of a threshold grid (default: a
	// 6-point log grid bracketing the paper's thresholds).
	Rates []float64 `json:"rates,omitempty"`
	// Values are the swept parameter values of a sensitivity panel
	// (default: the paper's range for the panel, 5 points).
	Values []float64 `json:"values,omitempty"`
	// Trials is the Monte-Carlo shot count per cell (default 2000; a cap
	// when TargetFailures is set).
	Trials int `json:"trials,omitempty"`
	// TargetFailures, when positive, ends each cell early once this many
	// logical failures accumulate.
	TargetFailures int `json:"target_failures,omitempty"`
	// RareEvent switches every cell to importance-sampled estimation: shots
	// draw from a proposal with fault probabilities inflated by Boost and
	// each cell's logical_rate/stderr come from the likelihood-ratio-weighted
	// tally (rel_err and ess columns report its quality). The mode of choice
	// for deep-subthreshold cells where trials-bounded brute force reports 0.
	RareEvent bool `json:"rare_event,omitempty"`
	// Boost is the rare-event proposal inflation factor (>= 1; 0 selects
	// montecarlo.DefaultBoost). Only valid with rare_event.
	Boost float64 `json:"boost,omitempty"`
	// TargetRelErr, when positive, ends each rare-event cell early once its
	// weighted estimate reaches this relative standard error — the weighted
	// replacement for target_failures, which rare_event rejects.
	TargetRelErr float64 `json:"target_rel_err,omitempty"`
	// Seed fixes the sweep's randomness; equal requests return
	// bit-identical cells.
	Seed int64 `json:"seed,omitempty"`
	// Decoder selects the per-shot decoder for either sweep type: "uf"
	// (default) or "blossom" (exact minimum-weight matching at union-find-
	// like cost).
	Decoder string `json:"decoder,omitempty"`
	// Jobs is this sweep's scheduler pool width (0 = the server default).
	Jobs int `json:"jobs,omitempty"`
	// ShardShots, fabric mode only, splits cells into shard units of ~this
	// many trials that the coordinator leases to separate workers; cells
	// below twice the size stay whole, and values below
	// montecarlo.MinShardShots are raised to that floor (see
	// montecarlo.PlanShards). A sharded cell still streams as one
	// CellRecord, merged deterministically from its fixed shard plan, and
	// equals a Workers == shards run of the cell rather than the unsharded
	// one, so the shard count is part of the cell's ledger key. Local mode
	// rejects a positive value.
	ShardShots int `json:"shard_shots,omitempty"`
	// NoCache bypasses the result ledger and request coalescing for this
	// job: every cell runs on the engine (or fabric) even if an identical
	// cell is stored or in flight, and nothing this job computes is
	// written back. The engine's structure cache still applies — it is
	// invisible in the result bytes. For A/B measurement (cmd/vlqload's
	// cold legs) and cache-suspicious debugging; results are bit-identical
	// either way, which is the whole point of the ledger.
	NoCache bool `json:"no_cache,omitempty"`
}

// CellRecord is one finished sweep cell as streamed to clients (NDJSON
// line or SSE "cell" event). Threshold cells carry scheme/phys_rate,
// sensitivity cells panel/value; both carry the distance and statistics.
type CellRecord struct {
	Index       int     `json:"index"`
	Decoder     string  `json:"decoder,omitempty"`
	Scheme      string  `json:"scheme,omitempty"`
	Panel       string  `json:"panel,omitempty"`
	Distance    int     `json:"distance"`
	PhysRate    float64 `json:"phys_rate,omitempty"`
	Value       float64 `json:"value,omitempty"`
	LogicalRate float64 `json:"logical_rate"`
	StdErr      float64 `json:"stderr"`
	// RelErr and ESS are the rare-event error-bar columns: stderr/logical_rate
	// and the Kish effective sample size of the weighted tally. Omitted for
	// unweighted cells (whose stderr is already the full story). A RelErr of
	// -1 encodes "no failures observed yet" (the true relative error is
	// unbounded, and JSON cannot carry +Inf).
	RelErr   *float64 `json:"rel_err,omitempty"`
	ESS      *float64 `json:"ess,omitempty"`
	Trials   int      `json:"trials"`
	Failures int      `json:"failures"`
	// Skipped and DedupHits surface the decode pipeline's hit rates for
	// this cell: shots answered by the zero-defect fast path, and shots
	// replayed from a duplicate syndrome in the same batch.
	Skipped   int `json:"skipped,omitempty"`
	DedupHits int `json:"dedup_hits,omitempty"`
	// DecoderStats carries the cell's matcher-internal stage counters;
	// omitzero drops the block for cells that did no matcher work, and the
	// value keeps CellRecord comparable.
	DecoderStats decoder.DecoderStats `json:"decoder_stats,omitzero"`
	// Source reports how this job obtained the cell: "" (the engine ran
	// it), "ledger" (served from the durable result store), or
	// "coalesced" (fed from an identical cell in flight on another job).
	// The scientific payload is bit-identical across all three — Source is
	// provenance, not identity, and is excluded from the ledger's stored
	// bytes.
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobStatus is the wire form of one sweep job: GET /v1/sweeps/{id}, the
// trailing line of an NDJSON stream, and the SSE "done" event.
type JobStatus struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Type       string     `json:"type"`
	Mode       string     `json:"mode,omitempty"`
	Cells      int        `json:"cells"`
	Completed  int        `json:"completed"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// StatsResponse is GET /v1/stats: the shared engine's structure-cache
// counters, the decode pipeline's process-wide hit counters, and the job
// registry's population.
type StatsResponse struct {
	Engine montecarlo.CacheStats `json:"engine"`
	Decode DecodeStats           `json:"decode"`
	Jobs   JobCounts             `json:"jobs"`
	// Ledger reports the durable result store and request-coalescing
	// counters: entries stored, lookup hits/misses, appends, and how many
	// cells were fed from an identical in-flight execution.
	Ledger LedgerSection `json:"ledger"`
	// Fabric carries the fabric coordinator's worker/lease/merge counters;
	// absent when the server runs without one.
	Fabric *fabric.Stats `json:"fabric,omitempty"`
}

// LedgerSection is the "ledger" block of GET /v1/stats: the store's own
// counters plus the coalescer's, which shares the section because the two
// answer the same question — how many cells never touched the engine.
type LedgerSection struct {
	LedgerStats
	// CoalesceHits counts cells served from another job's in-flight
	// execution of the same canonical cell.
	CoalesceHits int64 `json:"coalesce_hits"`
	// CoalescePending is the current in-flight pending-map population.
	CoalescePending int `json:"coalesce_pending"`
}

// DecodeStats aggregates the decode pipeline's counters over every cell
// the server has completed since startup, making the skip and dedup hit
// rates observable in production sweeps: Skipped/Shots is the zero-defect
// fraction (the shots that never touched a matcher), DedupHits/Shots the
// duplicate-syndrome fraction replayed from a batch-local cache.
type DecodeStats struct {
	Shots     int64 `json:"shots"`
	Skipped   int64 `json:"skipped"`
	DedupHits int64 `json:"dedup_hits"`
	// Decoder sums the matcher-internal stage counters (union-find growth
	// rounds, blossom escalation rounds, alternating-tree phases, ...) over
	// every completed cell — the profile-shaped view of where decode time
	// goes in production sweeps.
	Decoder decoder.DecoderStats `json:"decoder"`
}

// JobCounts summarizes the registry.
type JobCounts struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Retained  int   `json:"retained"`  // jobs currently in the registry
	Submitted int64 `json:"submitted"` // total accepted since startup
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func schemeByName(name string) (extract.Scheme, error) {
	for _, s := range extract.Schemes {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// buildCells validates the request, fills defaults, and expands it to
// scheduler jobs. All failures here are client errors (HTTP 400).
func buildCells(req SweepRequest) (typ string, cells []sched.Job, err error) {
	if req.Trials == 0 {
		req.Trials = 2000
	}
	if req.Trials < 0 {
		return "", nil, fmt.Errorf("trials must be positive, got %d", req.Trials)
	}
	if req.TargetFailures < 0 {
		return "", nil, fmt.Errorf("target_failures must be non-negative, got %d", req.TargetFailures)
	}
	if !req.RareEvent {
		if req.Boost != 0 {
			return "", nil, fmt.Errorf("boost requires rare_event mode")
		}
		if req.TargetRelErr != 0 {
			return "", nil, fmt.Errorf("target_rel_err requires rare_event mode")
		}
	} else {
		if req.Boost < 0 || req.Boost != 0 && req.Boost < 1 {
			return "", nil, fmt.Errorf("boost must be >= 1 (or 0 for the default), got %g", req.Boost)
		}
		if req.TargetRelErr < 0 {
			return "", nil, fmt.Errorf("target_rel_err must be non-negative, got %g", req.TargetRelErr)
		}
		if req.TargetFailures > 0 {
			return "", nil, fmt.Errorf("target_failures is undefined for rare_event sweeps; use target_rel_err")
		}
	}
	if req.Jobs < 0 {
		return "", nil, fmt.Errorf("jobs must be non-negative, got %d", req.Jobs)
	}
	if req.ShardShots < 0 {
		return "", nil, fmt.Errorf("shard_shots must be non-negative, got %d", req.ShardShots)
	}
	for _, d := range req.Distances {
		if d < 3 || d%2 == 0 {
			return "", nil, fmt.Errorf("distance %d invalid: want an odd distance >= 3", d)
		}
	}
	opts := montecarlo.SweepOptions{
		TargetFailures: req.TargetFailures,
		RareEvent:      req.RareEvent,
		Boost:          req.Boost,
		TargetRelErr:   req.TargetRelErr,
	}
	dec := montecarlo.UF
	if req.Decoder != "" {
		k, err := decoder.ParseKind(req.Decoder)
		if err != nil {
			return "", nil, err
		}
		dec = k
	}

	switch req.Type {
	case "", "threshold":
		typ = "threshold"
		if req.Panel != "" {
			return "", nil, fmt.Errorf("panel is a sensitivity-sweep field; set type to %q", "sensitivity")
		}
		if len(req.Values) != 0 {
			return "", nil, fmt.Errorf("values is a sensitivity-sweep field; threshold sweeps take rates")
		}
		if req.Scheme == "" {
			req.Scheme = extract.CompactInterleaved.String()
		}
		scheme, err := schemeByName(req.Scheme)
		if err != nil {
			return "", nil, err
		}
		if len(req.Distances) == 0 {
			req.Distances = []int{3, 5, 7}
		}
		if len(req.Rates) == 0 {
			req.Rates = montecarlo.DefaultPhysRates(6)
		}
		for _, p := range req.Rates {
			if p <= 0 || p >= 1 {
				return "", nil, fmt.Errorf("physical rate %g out of range (0, 1)", p)
			}
		}
		cells = sched.ThresholdJobs(scheme, req.Distances, req.Rates, hardware.Default(),
			req.Trials, req.Seed, dec, opts)

	case "sensitivity":
		typ = "sensitivity"
		if req.Scheme != "" {
			return "", nil, fmt.Errorf("scheme is fixed to compact-interleaved for sensitivity sweeps")
		}
		if len(req.Rates) != 0 {
			return "", nil, fmt.Errorf("rates is a threshold-sweep field; sensitivity sweeps take values")
		}
		panel := montecarlo.Panel(req.Panel)
		if !slices.Contains(montecarlo.Panels, panel) {
			return "", nil, fmt.Errorf("unknown panel %q (want one of %v)", req.Panel, montecarlo.Panels)
		}
		if len(req.Distances) == 0 {
			req.Distances = []int{3, 5}
		}
		if len(req.Values) == 0 {
			req.Values = panel.DefaultValues(5)
		}
		cells, err = sched.SensitivityJobs(panel, req.Values, req.Distances, req.Trials, req.Seed, dec, opts)
		if err != nil {
			return "", nil, err
		}

	default:
		return "", nil, fmt.Errorf("unknown sweep type %q (want %q or %q)", req.Type, "threshold", "sensitivity")
	}

	if len(cells) == 0 {
		return "", nil, fmt.Errorf("request expands to an empty grid")
	}
	if len(cells) > maxCells {
		return "", nil, fmt.Errorf("request expands to %d cells; the per-job limit is %d", len(cells), maxCells)
	}
	return typ, cells, nil
}

// BuildCells expands a validated SweepRequest into scheduler jobs — the
// same expansion POST /v1/sweeps performs, exported for coordinator
// binaries (cmd/vlqfabric) that reuse the request schema without the full
// server.
func BuildCells(req SweepRequest) ([]sched.Job, error) {
	_, cells, err := buildCells(req)
	return cells, err
}

// ToCellRecord converts one scheduler result to its wire form.
func ToCellRecord(r sched.CellResult) CellRecord { return cellRecord(r) }

// cellKey is the canonical identity of one scheduler job run under
// shardShots: the montecarlo-level key (every Config field that moves the
// result bytes) prefixed by the cell's sweep-grid coordinates and its
// shard count. The coordinates matter because CellRecord carries them
// from the Tag, not the Config: a threshold cell and a sensitivity cell
// that happened to expand to the same Config would still stream different
// Scheme/Panel/PhysRate/Value columns, so they must not share a ledger
// entry. The shard count matters because a cell of n shards (fabric
// mode) equals Engine.Run with Workers == n, whose bytes differ from the
// unsharded cell's; it is 1 for every unsharded cell.
func cellKey(j sched.Job, shardShots int) string {
	sh := montecarlo.PlanShards(j.Cfg.Trials, shardShots).Shards
	switch tag := j.Tag.(type) {
	case sched.ThresholdCell:
		return fmt.Sprintf("t|%s|%d|%x|sh=%d|%s", tag.Scheme, tag.Distance, tag.Phys, sh, j.Cfg.CellKey())
	case sched.SensitivityCell:
		return fmt.Sprintf("s|%s|%d|%x|sh=%d|%s", tag.Panel, tag.Distance, tag.Value, sh, j.Cfg.CellKey())
	default:
		return fmt.Sprintf("u|sh=%d|%s", sh, j.Cfg.CellKey())
	}
}

// cellRecord converts one scheduler result to its wire form.
func cellRecord(r sched.CellResult) CellRecord {
	rec := CellRecord{
		Index:       r.Index,
		Decoder:     string(r.Job.Cfg.Decoder),
		LogicalRate: r.Result.Rate(),
		StdErr:      r.Result.StdErr(),
		Trials:      r.Result.Trials,
		Failures:    r.Result.Failures,
		Skipped:     r.Result.Skipped,
		DedupHits:   r.Result.DedupHits,
	}
	rec.DecoderStats = r.Result.Stats
	if r.Job.Cfg.RareEvent {
		re := r.Result.RelErr()
		if math.IsInf(re, 1) {
			re = -1 // no failures observed: unbounded relative error
		}
		ess := r.Result.ESS()
		rec.RelErr, rec.ESS = &re, &ess
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	switch tag := r.Job.Tag.(type) {
	case sched.ThresholdCell:
		rec.Scheme = tag.Scheme.String()
		rec.Distance = tag.Distance
		rec.PhysRate = tag.Phys
	case sched.SensitivityCell:
		rec.Panel = string(tag.Panel)
		rec.Value = tag.Value
		rec.Distance = tag.Distance
	}
	return rec
}
