package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
)

// Job is one sweep cell: a Monte-Carlo point configuration plus an opaque
// caller tag carried through to the result (grid coordinates, typically).
// If Cfg.Workers is 0 the cell runs on one pool worker, which idle workers
// may help decode (see the package doc); an explicit positive value is
// honored via the engine's parallel path, which trades per-worker state
// reuse for independent worker streams.
type Job struct {
	Cfg montecarlo.Config
	Tag any
}

// CellResult is one finished cell. Index is the job's position in the
// slice submitted to Run or Stream.
type CellResult struct {
	Index  int
	Job    Job
	Result montecarlo.Result
	Err    error
}

// QueueOrder selects how the pool's job queue is ordered.
type QueueOrder int

const (
	// OrderCost drains cells longest-first by CellCost, so the cell that
	// dominates the sweep's tail starts immediately instead of landing on
	// an otherwise-idle pool at the end. The order affects wall clock only,
	// never results. This is the default.
	OrderCost QueueOrder = iota
	// OrderFIFO preserves submission order — the pre-cost-model behavior,
	// kept as the makespan benchmark baseline (BenchmarkSweepRowSkewed).
	OrderFIFO
)

// Options tunes a Scheduler.
type Options struct {
	// Jobs is the shared pool width — how many workers drain the queue of
	// cells (and shard units; see ShardShots) concurrently. 0 means
	// GOMAXPROCS. The width affects wall clock only, never results.
	Jobs int
	// OnResult, when set, is called once per cell as it finishes, in
	// completion order. Calls are serialized; the callback may write to
	// shared state (e.g. stdout) without locking. A sharded cell fires the
	// callback once, after its last shard merges.
	//
	// Ordering guarantee: completion order is NOT deterministic — it
	// depends on the pool width and on how long each cell takes. What is
	// deterministic is result identity: the CellResult delivered for a
	// given Index carries exactly the Result that cell's Config produces
	// single-threaded (or, for a sharded cell, the deterministic merge of
	// its fixed shard plan), at any pool width. Consumers that need a
	// stable order must sort by Index (or use Run, which already returns
	// submission order); consumers that only key rows by the cell's Tag or
	// Index may stream directly.
	OnResult func(CellResult)
	// Queue selects the job-queue order (default OrderCost: longest cell
	// first).
	Queue QueueOrder
	// ShardShots, when positive, splits cells whose trial budget exceeds
	// it into shard units of ~ShardShots trials (never smaller — floor
	// division folds the last partial chunk into the others) that idle
	// workers steal. Idle workers already help decode a running cell
	// without changing its result, so locally a big cell's tail needs no
	// sharding; shard units are what the fabric leases. Values below
	// montecarlo.MinShardShots are raised to that floor, so pinned small
	// cells are never split. The shard plan is a pure function of
	// (Config.Trials, ShardShots) and per-shard RNG streams derive from
	// the cell seed + shard index, so a sharded cell's merged Result is
	// bit-identical at every pool width; it equals
	// montecarlo.Engine.Run with Workers == shards, not the unsharded
	// single-threaded result. With Config.TargetFailures set, shards
	// coordinate early stop through one shared atomic budget, and the
	// shots taken depend on shard timing (exactly as Run's workers always
	// have); shard units reaching the front of the queue after the target
	// is already banked are settled as empty without touching the engine,
	// so a satisfied cell stops spawning decode work entirely. Cells with
	// Config.Workers > 1 already parallelize internally and are never
	// sharded.
	ShardShots int
}

// Scheduler drains sweep cells through a shared worker pool over one
// montecarlo.Engine. A Scheduler is safe for concurrent use; concurrent
// Run/Stream calls share the engine's structure cache but use separate
// pools.
type Scheduler struct {
	en   *montecarlo.Engine
	opts Options
	// helped counts the batches idle workers decoded for other workers'
	// cells, over the scheduler's lifetime. It never reaches a result.
	helped atomic.Int64
}

// New returns a scheduler over the engine (a fresh default engine if nil).
func New(en *montecarlo.Engine, opts Options) *Scheduler {
	if en == nil {
		en = montecarlo.NewEngine()
	}
	return &Scheduler{en: en, opts: opts}
}

// Engine returns the scheduler's underlying engine.
func (s *Scheduler) Engine() *montecarlo.Engine { return s.en }

func (s *Scheduler) width(n int) int {
	w := s.opts.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cellRun is the execution state of one cell: its fixed shard plan, the
// budget its shards share, and the merge accumulator. For unsharded cells
// (plan.Shards == 1) the direct Result is stored as-is, preserving the
// RunOn path bit for bit.
type cellRun struct {
	index  int
	job    Job
	plan   montecarlo.ShardPlan
	budget montecarlo.ShardBudget

	mu        sync.Mutex
	remaining int                      // shards not yet finished or skipped
	parts     []montecarlo.ShardResult // by shard index (sharded cells)
	errs      []error                  // by shard index
	skipErr   error                    // set when any shard was skipped by cancellation
	direct    montecarlo.Result        // unsharded result
}

// buildQueue fixes the execution plan for a sweep through BuildUnitQueue —
// per-cell shard plans and the flat unit queue workers steal from — and
// wraps each cell's plan in its local execution state.
func (s *Scheduler) buildQueue(jobs []Job) ([]*cellRun, []Unit) {
	q := BuildUnitQueue(jobs, s.opts.ShardShots, s.opts.Queue)
	cells := make([]*cellRun, len(jobs))
	for i, job := range jobs {
		plan := q.Plans[i]
		c := &cellRun{index: i, job: job, plan: plan, remaining: plan.Shards}
		if plan.Shards > 1 {
			c.parts = make([]montecarlo.ShardResult, plan.Shards)
			c.errs = make([]error, plan.Shards)
		}
		cells[i] = c
	}
	return cells, q.Units
}

// finishUnit records one unit's outcome on its cell and, when it was the
// cell's last outstanding unit, merges and emits the CellResult. skipErr
// marks a unit that was skipped (or aborted mid-run) by cancellation; a
// cell with any skipped unit carries that error and is never emitted, so
// consumers see no partial merges.
func (s *Scheduler) finishUnit(c *cellRun, u Unit, sr montecarlo.ShardResult, err, skipErr error,
	results []CellResult, emit func(CellResult), emitMu *sync.Mutex) {
	c.mu.Lock()
	if c.plan.Shards > 1 {
		c.parts[u.Shard] = sr
		c.errs[u.Shard] = err
	}
	if skipErr != nil && c.skipErr == nil {
		c.skipErr = skipErr
	}
	c.remaining--
	last := c.remaining == 0
	c.mu.Unlock()
	if err != nil && c.plan.Shards > 1 {
		// A failed shard dooms the cell; stop its siblings early.
		c.budget.Abort()
	}
	if !last {
		return
	}

	r := CellResult{Index: c.index, Job: c.job}
	if c.skipErr != nil {
		// A genuine shard execution error outranks the cancellation error:
		// an operator debugging a failing cell should see the real cause,
		// not just "canceled".
		r.Err = c.skipErr
		for _, e := range c.errs {
			if e != nil {
				r.Err = e
				break
			}
		}
		results[c.index] = r
		return // skipped cells are never emitted
	}
	if c.plan.Shards == 1 {
		r.Result, r.Err = c.direct, err
	} else {
		for _, e := range c.errs { // deterministic: first error by shard index
			if e != nil {
				r.Err = e
				break
			}
		}
		if r.Err == nil {
			r.Result, r.Err = montecarlo.MergeShards(c.job.Cfg, c.parts)
		}
	}
	results[c.index] = r
	if emit != nil {
		emitMu.Lock()
		emit(r)
		emitMu.Unlock()
	}
}

// run drains the jobs through the pool, storing each cell at its index and
// emitting it (serialized) as it finishes. The queue holds units — whole
// cells, or stolen shards of cells above the sharding threshold — ordered
// longest-cell-first under OrderCost. Cancellation is observed at unit
// boundaries: once ctx is done, workers stop picking up new units, mark the
// affected cells with ctx's error (without emitting them), and in-flight
// shards of sharded cells abort at their next batch boundary (their cell
// can no longer complete, so finishing them is wasted work). In-flight
// unsharded cells keep the documented run-to-completion semantics.
func (s *Scheduler) run(ctx context.Context, jobs []Job, results []CellResult, emit func(CellResult)) {
	cells, units := s.buildQueue(jobs)
	if len(units) == 0 {
		return
	}

	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				for _, c := range cells {
					if c.plan.Shards > 1 {
						c.budget.Abort()
					}
				}
			case <-finished:
			}
		}()
	}

	// Workers that find the unit queue drained help the cells still running
	// by decoding their sampled batches, until the last unit finishes.
	crew := montecarlo.NewCrew()
	var next atomic.Int64
	var left atomic.Int64
	left.Store(int64(len(units)))
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.width(len(units)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st montecarlo.WorkerState
			st.JoinCrew(crew)
			for k := int(next.Add(1)) - 1; k < len(units); k = int(next.Add(1)) - 1 {
				s.runUnit(ctx, cells[units[k].Cell], units[k], &st, results, emit, &emitMu)
				if left.Add(-1) == 0 {
					crew.Close()
				}
			}
			s.help(crew, &st)
		}()
	}
	wg.Wait()
}

// runUnit executes one unit on st and records it on its cell.
func (s *Scheduler) runUnit(ctx context.Context, c *cellRun, u Unit, st *montecarlo.WorkerState,
	results []CellResult, emit func(CellResult), emitMu *sync.Mutex) {
	if err := ctx.Err(); err != nil {
		s.finishUnit(c, u, montecarlo.ShardResult{}, nil, err, results, emit, emitMu)
		return
	}
	var sr montecarlo.ShardResult
	var err error
	if c.plan.Shards == 1 {
		if c.job.Cfg.Workers > 1 {
			c.direct, err = s.en.Run(c.job.Cfg)
		} else {
			c.direct, err = s.en.RunOn(c.job.Cfg, st)
		}
	} else if c.budget.TargetMet(c.job.Cfg) {
		// Steal-aware early stop: sibling shards already banked the cell's
		// failure or relative-error target, so this unit would observe the
		// met budget and exit after zero batches. Settle it as an empty
		// shard without paying the engine prepare; MergeShards takes the
		// model dimensions from the lowest shard that actually ran.
		sr = montecarlo.ShardResult{Shard: u.Shard}
	} else {
		sr, err = s.en.RunShardOn(c.job.Cfg, c.plan, u.Shard, &c.budget, st)
	}
	// An abort observed alongside cancellation means this unit's tally may
	// be short; treat the cell as skipped rather than merging a partial
	// shard.
	var skipErr error
	if c.plan.Shards > 1 && c.budget.Aborted() {
		if cerr := ctx.Err(); cerr != nil {
			skipErr = cerr
		}
	}
	s.finishUnit(c, u, sr, err, skipErr, results, emit, emitMu)
}

// decodeSlot is a helper's decode step, a variable so that tests can make
// it fail.
var decodeSlot = (*montecarlo.WorkerState).DecodeSlot

// help lends st to the crew: it decodes batches that running cells sampled
// until the crew closes, counting them in s.helped.
func (s *Scheduler) help(crew *montecarlo.Crew, st *montecarlo.WorkerState) {
	for sl := crew.Claim(); sl != nil; sl = crew.Claim() {
		crew.Finish(sl, decodeSlot(st, sl))
		s.helped.Add(1)
	}
}

// Run executes all jobs and returns their results in submission order —
// deterministic regardless of pool width and completion order. Every cell
// runs even if others fail; the returned error is the first failing cell's
// (by submission order), with per-cell errors in each CellResult.
func (s *Scheduler) Run(jobs []Job) ([]CellResult, error) {
	return s.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: when ctx is cancelled the pool
// stops picking up new units. In-flight unsharded cells finish; in-flight
// shards of sharded cells abort at their next batch boundary, since their
// cell can no longer merge completely. Cells skipped or aborted carry
// ctx's error in their CellResult, RunContext returns ctx's error, and
// such cells are never delivered to Options.OnResult — a streaming
// consumer sees only cells that ran to completion, never a partial merge.
func (s *Scheduler) RunContext(ctx context.Context, jobs []Job) ([]CellResult, error) {
	results := make([]CellResult, len(jobs))
	s.run(ctx, jobs, results, s.opts.OnResult)
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("sched: cell %d: %w", i, results[i].Err)
		}
	}
	return results, nil
}

// Stream executes all jobs and delivers results on the returned channel in
// completion order, closing it when the sweep is done. The channel is
// buffered to len(jobs), so the sweep never blocks on a slow consumer.
// Options.OnResult, if set, also fires per cell.
//
// Completion order is nondeterministic (it depends on pool width and cell
// durations), but result identity is not: for a given seed, the CellResult
// carrying Index i is identical at every pool width. Consumers needing a
// stable order should collect and sort by Index.
func (s *Scheduler) Stream(jobs []Job) <-chan CellResult {
	return s.StreamContext(context.Background(), jobs)
}

// StreamContext is Stream with cancellation semantics matching
// RunContext: after ctx is done, in-flight unsharded cells still arrive
// on the channel (they ran to completion) and the channel then closes;
// cells that never started — and sharded cells whose in-flight shards
// were aborted — are silently dropped from the stream.
func (s *Scheduler) StreamContext(ctx context.Context, jobs []Job) <-chan CellResult {
	ch := make(chan CellResult, len(jobs))
	results := make([]CellResult, len(jobs))
	go func() {
		defer close(ch)
		s.run(ctx, jobs, results, func(r CellResult) {
			if s.opts.OnResult != nil {
				s.opts.OnResult(r)
			}
			ch <- r
		})
	}()
	return ch
}

// ThresholdCell tags one Fig. 11 grid cell.
type ThresholdCell struct {
	Scheme   extract.Scheme
	Distance int
	Phys     float64
}

// ThresholdJobs builds the Fig. 11 grid as scheduler jobs, cell-for-cell
// identical to montecarlo.ThresholdSweep (both build each cell through
// montecarlo.ThresholdCellConfig) so the two paths stay statistically
// comparable. Each job is tagged with its ThresholdCell coordinates.
func ThresholdJobs(scheme extract.Scheme, distances []int, physRates []float64, base hardware.Params, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) []Job {
	jobs := make([]Job, 0, len(distances)*len(physRates))
	for _, d := range distances {
		for _, p := range physRates {
			jobs = append(jobs, Job{
				Cfg: montecarlo.ThresholdCellConfig(scheme, d, p, base, trials, seed, dec, opts),
				Tag: ThresholdCell{Scheme: scheme, Distance: d, Phys: p},
			})
		}
	}
	return jobs
}

// ThresholdSweep runs a Fig. 11 grid through the scheduler, returning
// points in grid order (distances outer, rates inner) like
// montecarlo.ThresholdSweep.
func (s *Scheduler) ThresholdSweep(scheme extract.Scheme, distances []int, physRates []float64, base hardware.Params, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) ([]montecarlo.SweepPoint, error) {
	results, err := s.Run(ThresholdJobs(scheme, distances, physRates, base, trials, seed, dec, opts))
	if err != nil {
		return nil, fmt.Errorf("sweep %v: %w", scheme, err)
	}
	pts := make([]montecarlo.SweepPoint, len(results))
	for i, r := range results {
		cell := r.Job.Tag.(ThresholdCell)
		pts[i] = montecarlo.SweepPoint{Distance: cell.Distance, Phys: cell.Phys, Result: r.Result}
	}
	return pts, nil
}

// SensitivityCell tags one Fig. 12 panel cell.
type SensitivityCell struct {
	Panel    montecarlo.Panel
	Value    float64
	Distance int
}

// SensitivityJobs builds one Fig. 12 panel as scheduler jobs, cell-for-cell
// identical to montecarlo.SensitivitySweep (both build each cell through
// montecarlo.SensitivityCellConfig).
func SensitivityJobs(panel montecarlo.Panel, values []float64, distances []int, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) ([]Job, error) {
	jobs := make([]Job, 0, len(distances)*len(values))
	for _, d := range distances {
		for _, v := range values {
			cfg, err := montecarlo.SensitivityCellConfig(panel, v, d, trials, seed, dec, opts)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, Job{
				Cfg: cfg,
				Tag: SensitivityCell{Panel: panel, Value: v, Distance: d},
			})
		}
	}
	return jobs, nil
}

// SensitivitySweep runs one Fig. 12 panel through the scheduler, returning
// points in grid order like montecarlo.SensitivitySweep.
func (s *Scheduler) SensitivitySweep(panel montecarlo.Panel, values []float64, distances []int, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) ([]montecarlo.SensitivityPoint, error) {
	jobs, err := SensitivityJobs(panel, values, distances, trials, seed, dec, opts)
	if err != nil {
		return nil, err
	}
	results, err := s.Run(jobs)
	if err != nil {
		return nil, fmt.Errorf("sensitivity %v: %w", panel, err)
	}
	pts := make([]montecarlo.SensitivityPoint, len(results))
	for i, r := range results {
		cell := r.Job.Tag.(SensitivityCell)
		pts[i] = montecarlo.SensitivityPoint{Panel: cell.Panel, Value: cell.Value, Distance: cell.Distance, Result: r.Result}
	}
	return pts, nil
}
