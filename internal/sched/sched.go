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
// Every cell runs on one pool worker through montecarlo.Engine.RunOn,
// which idle workers may help decode (see the package doc), so a cell's
// bytes are RunOn's at any pool width.
type Job struct {
	Cfg montecarlo.Config
	Tag any
}

// CellResult is one finished cell. Index is the job's position in the
// slice submitted to Run or RunContext.
type CellResult struct {
	Index  int
	Job    Job
	Result montecarlo.Result
	Err    error
}

// Options tunes a Scheduler. The queue order is not an option: every pool
// drains its cells cheapest first (DrainOrder).
type Options struct {
	// Jobs is the shared pool width — how many workers drain the queue of
	// cells concurrently. 0 means GOMAXPROCS. The width affects wall clock
	// only, never results.
	Jobs int
	// OnResult, when set, is called once per cell as it finishes, in
	// completion order. Calls are serialized; the callback may write to
	// shared state (e.g. stdout) without locking.
	//
	// Ordering guarantee: completion order is NOT deterministic — it
	// depends on the pool width and on how long each cell takes (at width
	// 1 it is DrainOrder). What is deterministic is result identity: the
	// CellResult delivered for a given Index carries exactly the Result
	// Engine.RunOn gives that cell's Config, at any pool width. Consumers that need a stable order
	// must sort by Index (or use Run, which already returns submission
	// order); consumers that only key rows by the cell's Tag or Index may
	// stream directly.
	OnResult func(CellResult)
}

// Scheduler drains sweep cells through a shared worker pool over one
// montecarlo.Engine. A Scheduler is safe for concurrent use; concurrent
// Run calls share the engine's structure cache but use separate pools.
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

// run drains the jobs through the pool in DrainOrder, storing each cell at
// its index and emitting it (serialized) as it finishes. Once ctx is done,
// workers stop picking up cells, and every in-flight cell's budget is
// aborted, so it stops at its next batch boundary. Skipped and aborted
// cells carry ctx's error and are never emitted: consumers see no partial
// cells.
func (s *Scheduler) run(ctx context.Context, jobs []Job, results []CellResult, emit func(CellResult)) {
	order := DrainOrder(jobs)
	if len(order) == 0 {
		return
	}
	budgets := make([]montecarlo.ShardBudget, len(jobs))
	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				for i := range budgets {
					budgets[i].Abort()
				}
			case <-finished:
			}
		}()
	}

	// Workers that find the queue drained help the cells still running by
	// decoding their sampled batches, until the last cell finishes. Each
	// worker runs on a warm state of the engine's for as long as it is in
	// the pool, and hands it back before the run returns.
	crew := montecarlo.NewCrew()
	var next atomic.Int64
	var left atomic.Int64
	left.Store(int64(len(order)))
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.width(len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s.en.AcquireState()
			defer s.en.ReleaseState(st)
			st.JoinCrew(crew)
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				i := order[k]
				r := CellResult{Index: i, Job: jobs[i]}
				ok := s.runCell(ctx, &r, &budgets[i], st)
				results[i] = r
				if ok && emit != nil {
					emitMu.Lock()
					emit(r)
					emitMu.Unlock()
				}
				if left.Add(-1) == 0 {
					crew.Close()
				}
			}
			s.help(crew, st)
		}()
	}
	wg.Wait()
}

// runCell runs r's job on st under budget and reports whether the cell
// finished. A cell skipped, or aborted mid-run, by cancellation carries no
// counts and ctx's error (or the run's own, if it failed).
func (s *Scheduler) runCell(ctx context.Context, r *CellResult, budget *montecarlo.ShardBudget, st *montecarlo.WorkerState) bool {
	if err := ctx.Err(); err != nil {
		r.Err = err
		return false
	}
	r.Result, r.Err = s.en.RunOnBudget(r.Job.Cfg, budget, st)
	if budget.Aborted() {
		// Only cancellation aborts a budget, and the tally may be short. A
		// genuine run error outranks the cancellation as the cause.
		r.Result = montecarlo.Result{}
		if r.Err == nil {
			r.Err = ctx.Err()
		}
		return false
	}
	return true
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
// stops picking up cells, and in-flight cells abort at their next batch
// boundary. Cells skipped or aborted carry ctx's error in their
// CellResult, RunContext returns ctx's error, and such cells are never
// delivered to Options.OnResult — a streaming consumer sees only cells
// that ran to completion.
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

// ThresholdCell tags one Fig. 11 grid cell.
type ThresholdCell struct {
	Scheme   extract.Scheme
	Distance int
	Phys     float64
}

// ThresholdJobs builds the Fig. 11 grid as scheduler jobs, each cell
// through montecarlo.ThresholdCellConfig and tagged with its ThresholdCell
// coordinates.
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
// points in grid order (distances outer, rates inner).
func (s *Scheduler) ThresholdSweep(scheme extract.Scheme, distances []int, physRates []float64, base hardware.Params, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) ([]montecarlo.SweepPoint, error) {
	results, err := s.Run(ThresholdJobs(scheme, distances, physRates, base, trials, seed, dec, opts))
	if err != nil {
		return nil, fmt.Errorf("sweep %v: %w", scheme, err)
	}
	return ThresholdPoints(results), nil
}

// ThresholdPoints converts the results of ThresholdCell-tagged jobs to
// sweep points, in the results' order.
func ThresholdPoints(results []CellResult) []montecarlo.SweepPoint {
	pts := make([]montecarlo.SweepPoint, len(results))
	for i, r := range results {
		cell := r.Job.Tag.(ThresholdCell)
		pts[i] = montecarlo.SweepPoint{Distance: cell.Distance, Phys: cell.Phys, Result: r.Result}
	}
	return pts
}

// SensitivityCell tags one Fig. 12 panel cell.
type SensitivityCell struct {
	Panel    montecarlo.Panel
	Value    float64
	Distance int
}

// SensitivityJobs builds one Fig. 12 panel as scheduler jobs, each cell
// through montecarlo.SensitivityCellConfig.
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
// points in grid order (distances outer, values inner).
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
