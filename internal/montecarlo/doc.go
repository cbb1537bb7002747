// Package montecarlo estimates logical error rates by sampling detector
// error models and decoding each shot, reproducing the paper's §V threshold
// experiments (Fig. 11) and §VI sensitivity studies (Fig. 12).
//
// Each trial is one round of the experiment defined by internal/extract:
// sample the detector error model, decode the fired detectors, and compare
// the decoder's observable prediction with the sampled truth. The logical
// error rate is failures/trials, with a binomial standard error.
//
// The Engine is the batched production path. It caches the expensive,
// noise-independent halves of a point — the structural circuit build and
// the detector-error-model Structure (with its hoisted decoding-graph
// topology) — in a bounded LRU keyed by extract.StructuralKey, so a
// threshold sweep builds each (scheme, distance) experiment once and merely
// Reweights it per physical rate. Shots are drawn 64 at a time by the
// word-packed dem.BatchSampler and decoded through decoder.BatchDecoder
// with reusable buffers; each shard of a point draws from its own ChaCha8
// stream, and an unsharded point from stream 0. An optional early-stop
// mode (Config.TargetFailures) ends a point once a target failure count is
// reached.
//
// One kernel runs every point, in both modes and on every entry point:
// sample a batch into a Slot, decode the Slot into a failure bitmask
// (DecodeSlot; the decode pipeline on or off is decided inside that one
// step), then, strictly in batch order, popcount the mask (plain) or fold
// its likelihood-ratio weights in shot order (rare event). Its output is a
// Counts — trials, failures, pipeline skips and dedup hits,
// decoder stage Stats, and the Weighted tally — embedded in Result and
// ShardResult and merged everywhere by Counts.Add.
//
// The decode half may run on another goroutine. A WorkerState joined to a
// Crew (the sweep scheduler gives each run one) lends the batches its cell
// samples to crew members idle in Claim, which decode them on their own
// WorkerState and hand them back with Finish. Sampling and folding stay on
// the cell's goroutine, early stop is checked at fold time, and a batch's
// decode is a pure function of its syndromes, so a helped point's Counts
// are bit-identical to its solo run.
//
// For deep sub-threshold points, where brute force would see zero failures
// in any affordable budget, Config.RareEvent switches the engine to
// importance sampling: shots are drawn from a boosted proposal model
// (every fault mechanism fires Boost times as often, via
// dem.WeightedBatchSampler) and each shot carries a likelihood-ratio
// weight. Failures accumulate into Result.Weighted (a WeightedResult),
// whose Estimate is unbiased for the true logical rate and which carries
// its own variance, relative standard error, and Kish effective sample
// sizes. Weighted tallies merge across shards and fabric
// ShardResults in the same deterministic order as the plain counters, so
// rare-event sweeps stay bit-identical at any pool width or shard plan.
// TargetRelErr is the mode's early stop: a point ends once the weighted
// estimate's relative standard error drops below the target. Trust the
// error bar only when WeightedResult.FailESS is at least ~10 — below
// that, too few effective failure observations back the variance
// estimate.
//
// Entry points:
//
//   - Config -> Engine.RunOn(cfg, *WorkerState): one unsharded point on
//     the calling goroutine from stream 0, with reusable per-worker
//     scratch — the one entry point of an unsharded cell, whose bytes
//     depend on its Config alone, helped or not. The sweep scheduler, the
//     serving front end and the public facade all run cells through it.
//     Engine.RunOnBudget is the same under a caller-held ShardBudget whose
//     Abort stops the point at its next batch (the scheduler's cancel)
//   - NewCrew / WorkerState.JoinCrew / Crew.Claim / WorkerState.DecodeSlot
//     / Crew.Finish: the rendezvous through which idle pool workers decode
//     running cells' batches
//   - PlanShards / Engine.RunShardOn / MergeShards: the partial-run API
//     the distributed fabric (internal/fabric) leases — a fixed
//     decomposition of one point into shard units. Shard i consumes stream
//     i, a shared ShardBudget coordinates TargetFailures early stop and
//     abort across shards, and a fully executed plan equals MergeShards of
//     the plan's RunShardOn shards, shard i on stream i, whoever ran them
//     in whatever order. These are the only multi-stream runs; a one-shard
//     plan is RunOn. PlanShards never splits below the MinShardShots
//     floor, protecting pinned small cells
//   - ThresholdCellConfig / SensitivityCellConfig: the canonical per-cell
//     configurations of the Fig. 11 and Fig. 12 grids, which
//     internal/sched's job builders and sweeps run
//   - Engine.CacheStats: structure-cache counters (builds, hits,
//     evictions, entries) — the observability hook behind the serving
//     front end's /v1/stats
//   - RunReference: the retained pre-batching scalar engine, the
//     benchmark baseline and statistical cross-check
//   - EstimateThreshold: interpolates the Fig. 11 crossing point
//
// One Engine is safe for concurrent use and is meant to be long-lived:
// the scheduler (internal/sched) and the HTTP front end (internal/serve)
// both share a single engine across whole workloads.
package montecarlo
