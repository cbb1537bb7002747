// Package sched is the serving-oriented sweep scheduler: a queue of
// Monte-Carlo sweep cells drained by one shared worker pool, cheapest cell
// first, with idle workers helping the cells still running.
//
// # Execution model
//
// Every cell is one unit of work, owned by whichever pool worker picks it
// up and run through montecarlo.Engine.RunOn, the one stream layout of an
// unsharded point. The owner samples every batch from the cell's own
// ChaCha8 stream and folds every result, strictly in batch order. Decoding, the bulk of a cell's time, may run on other workers: a
// worker that finds the queue drained does not exit but waits in the
// run's montecarlo.Crew, decoding batches that running cells have
// sampled, until the last cell finishes. An owner lends only batches
// heavy enough to repay the handoff, samples ahead only for helpers that
// are idle or already decoding its batches, decodes itself every batch no
// helper claimed, and checks early stop at fold time. Decoding is a pure
// function of a batch, so a cell's result is RunOn's for its Config —
// never dependent on the pool width, on which worker decoded which batch,
// or on which cells finished first. Each pool worker takes a
// montecarlo.WorkerState from the engine (Engine.AcquireState) when it
// starts and hands it back when it leaves, threading it through its
// consecutive cells meanwhile. The states outlive the run, so sampler
// tables, decoder arrays and batch buffers carry over from cell to cell
// and from one Run to the next on the same engine: a serving process's
// short per-request runs start warm. The engine's bounded structure cache
// does the same for the expensive structural halves.
//
// Splitting a cell into separately seeded shards is not a local concern:
// helping already spreads one big cell's decode over the pool without
// changing its bytes. Shard plans live only in internal/fabric, which
// leases shard units to remote workers, longest cell first by this
// package's CellCost.
//
// # Cost model
//
// The queue is ordered cheapest cell first (DrainOrder), ties in
// submission order. CellCost estimates a cell's decode cost from the
// dem.Structure dimensions its Config implies — detectors per round
// (d^2-1), rounds, trials — without touching the engine, so ordering is a
// pure function of the job list. Every consumer of a pool streams cells
// as they finish (serve's NDJSON sweeps, sweepcli's -jobs rows), and
// cheapest-first delivers most of a grid while its costliest cells still
// run. The makespan holds: the costliest cells run last, and every
// worker that finds the queue drained helps decode their batches. The
// fabric orders its lease queue the other way, longest cell first,
// because its remote workers cannot help an unsharded cell: a big cell
// leased last would finish alone. Ordering affects wall clock only, never
// results.
//
// # Cancellation
//
// One rule covers every cell. Once the RunContext context is done,
// workers stop picking up cells, and the scheduler aborts the budget of
// every cell (montecarlo.ShardBudget), which the running ones observe at
// their next 64-shot batch boundary. Cells that never started
// and cells aborted mid-run carry the context error and are dropped,
// never emitted: consumers see no partial cells, and even a
// multi-million-trial cell stops within a batch. This is the hook the
// HTTP front end's job cancellation (DELETE, client disconnect) is built
// on.
//
// # Entry points
//
//   - Job / CellResult: one schedulable cell and its outcome
//   - New(engine, Options) -> Scheduler; Options.Jobs sets the pool
//     width
//   - Scheduler.Run / RunContext: drain jobs, results in submission order;
//     Options.OnResult streams each cell as it finishes, in completion
//     order
//   - Scheduler.ThresholdSweep / SensitivitySweep: run a whole Fig. 11
//     grid or Fig. 12 panel, points in grid order; ThresholdPoints turns
//     the results of any Fig. 11 jobs into the same points
//   - CellCost / DrainOrder: the ordering estimate and the queue it
//     yields, exported for the fabric, tests and tooling
//   - ThresholdJobs / SensitivityJobs: expand a Fig. 11 grid or Fig. 12
//     panel into jobs through montecarlo.ThresholdCellConfig /
//     SensitivityCellConfig
//
// The ordering contract, precisely: completion ORDER varies with pool
// width and cell durations, but result IDENTITY does not — the CellResult
// carrying a given Index is bit-identical at every pool width.
// internal/serve builds on this package to run sweeps as cancellable HTTP
// jobs; cmd/internal/sweepcli, behind cmd/vlqthreshold and cmd/vlqsense,
// drains serve.BuildCells grids through it for -jobs/-csv/-json streaming
// sweeps.
package sched
