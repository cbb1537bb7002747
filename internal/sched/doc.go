// Package sched is the serving-oriented sweep scheduler: a queue of
// Monte-Carlo sweep cells drained by one shared worker pool, cost-ordered
// and work-stealing, instead of the cell-at-a-time loop with per-cell
// worker forking that sweeps used before.
//
// # Execution model
//
// Each cell is owned by whichever pool worker picks it up
// (montecarlo.Engine.RunOn as worker 0 of its own point). The owner
// samples every batch from the cell's own ChaCha8 stream and folds every
// result, strictly in batch order. Decoding, the bulk of a cell's time,
// may run on other workers: a worker that finds the unit queue drained
// does not exit but waits in the run's montecarlo.Crew, decoding batches
// that running cells have sampled, until the last unit finishes. An owner
// lends only batches heavy enough to repay the handoff, samples ahead only
// for helpers that are idle or already decoding its batches, decodes
// itself every batch no helper claimed, and checks early stop at fold
// time. Decoding is a pure function of a batch, so a cell's result
// depends only on its Config — never on the pool width, on which worker
// decoded which batch, or on which cells finished first. Workers thread
// one montecarlo.WorkerState through their consecutive units, reusing
// sampler tables, union-find arrays, and batch buffers across the noise
// scales of a row; the engine's bounded structure cache does the same for
// the expensive structural halves.
//
// # Cost model
//
// The queue is ordered longest-cell-first by default (Options.Queue ==
// OrderCost). CellCost estimates a cell's decode cost from the
// dem.Structure dimensions its Config implies — detectors per round
// (d^2-1), rounds, trials — without touching the engine, so ordering is a
// pure function of the job list. Longest-first matters on skewed grids:
// submission order parks the dominant cell behind the small ones and the
// pool idles while it finishes alone at the tail. OrderFIFO retains the
// old behavior as the benchmark baseline. Ordering affects wall clock
// only, never results.
//
// # Work stealing and the shard-plan determinism invariant
//
// Options.ShardShots splits cells above the threshold into shard units
// (montecarlo.PlanShards; positive thresholds below
// montecarlo.MinShardShots are raised to that floor) that idle workers
// steal from the same queue. Shard i of a cell consumes ChaCha8 worker
// stream i of the cell's seed, and the last shard to finish merges the
// parts (montecarlo.MergeShards) into the cell's one CellResult. The
// invariant: a shard plan derives from the cell spec and the threshold
// alone — never from pool width or runtime state — so a sharded cell's
// merged result is bit-identical at every pool width, and equals
// montecarlo.Engine.Run with Workers == shards (not the unsharded
// single-stream result; pick a threshold, keep it, and results are
// reproducible).
//
// # Cross-shard early stop
//
// A sharded cell with Config.TargetFailures > 0 coordinates early
// stopping through one shared montecarlo.ShardBudget: every shard banks
// its failures into the budget's atomic and checks it per 64-shot batch,
// so the whole cell stops soon after the target is met no matter which
// shard met it. The contract: failure and trial counts merge
// deterministically from whatever the shards report, but WHICH shot a
// sharded point stops at is timing-dependent — the same trade
// montecarlo.Engine.Run's workers have always made. Fixed-trial sharded
// cells (TargetFailures == 0) remain bit-exact.
//
// # Cancellation
//
// RunContext/StreamContext observe cancellation at unit boundaries: once
// the context is done, workers stop picking up units, cells that never
// started carry the context error (without being emitted), and in-flight
// shards of sharded cells abort at their next batch boundary — their cell
// can no longer complete, so finishing them is wasted work. A cell with
// any skipped or aborted shard is dropped, never emitted: consumers see
// no partial merges. In-flight unsharded cells run to completion as
// before. This is the hook the HTTP front end's job cancellation (DELETE,
// client disconnect) is built on.
//
// # Entry points
//
//   - Job / CellResult: one schedulable cell and its outcome
//   - New(engine, Options) -> Scheduler; Options.Jobs sets the pool
//     width, Options.Queue the order, Options.ShardShots the stealing
//     threshold
//   - Scheduler.Run / RunContext: drain jobs, results in submission order
//   - Scheduler.Stream / StreamContext: drain jobs, results on a channel
//     in completion order
//   - CellCost: the ordering estimate, exported for tests and tooling
//   - ThresholdJobs / SensitivityJobs: expand a Fig. 11 grid or Fig. 12
//     panel into jobs, cell-for-cell identical to the sequential sweeps
//     in internal/montecarlo
//
// The ordering contract, precisely: completion ORDER varies with pool
// width and cell durations, but result IDENTITY does not — the CellResult
// carrying a given Index is bit-identical at every pool width, per shard
// plan. internal/serve builds on this package to run sweeps as
// cancellable HTTP jobs; cmd/vlqthreshold and cmd/vlqsense use it for
// -jobs/-shard-shots/-csv/-json streaming sweeps.
package sched
