package montecarlo

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// MinShardShots is the documented shot floor below which sharding never
// engages: PlanShards raises any positive shard size to this value, so a
// point at or below MinShardShots trials always plans as a single shard.
// The floor exists for two reasons. Statistically, pinned-seed fixtures
// (internal/montecarlo/testdata/golden_rates.json runs 250-trial cells)
// must never be split silently — a split changes the RNG stream layout and
// therefore the bit-exact counts. Economically, a shard smaller than ~16
// batches pays more in per-shard prepare/merge bookkeeping than the
// parallelism returns.
const MinShardShots = 1024

// ShardPlan is the fixed decomposition of one Monte-Carlo point's trials
// into shard units. A plan is derived from the cell spec alone (trials and
// the shard-size threshold) — never from pool width, worker count, or any
// runtime state — which is what makes a sharded point's merged result
// reproducible: same Config + same threshold => same plan => same per-shard
// ChaCha8 streams.
type ShardPlan struct {
	// Shards is the number of shard units (>= 1; 1 means unsharded).
	Shards int
	// Trials is the point's total trial budget, split across shards by
	// ShardTrials.
	Trials int
}

// PlanShards returns the shard plan for a point of the given trial budget
// under a shard size of shardShots. shardShots <= 0 disables sharding
// (single-shard plan); positive values below MinShardShots are raised to
// the floor, so callers cannot accidentally shard pinned small cells.
// Floor division sizes the plan — every shard carries at least shardShots
// trials (the last partial chunk folds into the others) — so no shard ever
// drops below the economic floor the threshold promises.
func PlanShards(trials, shardShots int) ShardPlan {
	p := ShardPlan{Shards: 1, Trials: trials}
	if shardShots <= 0 || trials <= 0 {
		return p
	}
	if shardShots < MinShardShots {
		shardShots = MinShardShots
	}
	p.Shards = max(trials/shardShots, 1)
	return p
}

// ShardTrials returns shard i's trial allotment: Trials/Shards each, with
// the remainder spread over the first shards. Shard i consumes stream i of
// the point's seed, so a fully executed plan merges to the same Result
// whichever worker ran which shard, in whatever order.
func (p ShardPlan) ShardTrials(i int) int {
	per := p.Trials / p.Shards
	if i < p.Trials%p.Shards {
		per++
	}
	return per
}

// ShardBudget coordinates the shards of one point: the shared failure
// count that TargetFailures early stopping reads, and an abort flag that
// stops in-flight runs at their next 64-shot batch boundary
// (the sweep scheduler raises it on a cancelled cell's RunOnBudget, a
// fabric worker on a cancelled lease, so neither burns cycles on a result
// that can no longer be delivered). The zero value is ready to use. One
// ShardBudget must be shared by every shard of a plan and must not be
// reused across points.
type ShardBudget struct {
	failures atomic.Int64
	aborted  atomic.Bool

	// Pooled weighted tally for TargetRelErr early stopping: shards of a
	// rare-event point bank their per-batch weight deltas here and check the
	// pooled relative error at batch boundaries. Mutex-guarded (multiple
	// float sums), touched only by weighted runs.
	wmu   sync.Mutex
	wpool WeightedResult
}

// Failures returns the failures accumulated toward the early-stop target so
// far. Only shards running with TargetFailures > 0 contribute.
func (b *ShardBudget) Failures() int64 { return b.failures.Load() }

// Abort makes every shard sharing the budget stop at its next batch
// boundary. Aborting is idempotent and cannot be undone.
func (b *ShardBudget) Abort() { b.aborted.Store(true) }

// Aborted reports whether Abort has been called.
func (b *ShardBudget) Aborted() bool { return b.aborted.Load() }

// TargetMet reports whether the shards sharing the budget have banked the
// point's early-stop target: cfg.TargetFailures failures, or a pooled
// weighted estimate at cfg.TargetRelErr (a normalized Config sets at most
// one). Without a target it is always false.
func (b *ShardBudget) TargetMet(cfg Config) bool {
	if tf := cfg.TargetFailures; tf > 0 {
		return b.failures.Load() >= int64(tf)
	}
	if cfg.TargetRelErr <= 0 {
		return false
	}
	b.wmu.Lock()
	defer b.wmu.Unlock()
	return b.wpool.RelErrMet(cfg.TargetRelErr)
}

// AddWeighted banks one batch's weighted tally toward TargetRelErr early
// stopping. Like the failure counter, the pooled sums see contributions in
// sibling-timing order — the stop *decision* may vary run to run, but each
// shard's own ShardResult stays an ordered, deterministic accumulation.
func (b *ShardBudget) AddWeighted(d WeightedResult) {
	b.wmu.Lock()
	b.wpool.Add(d)
	b.wmu.Unlock()
}

// ShardResult is one shard's tally, mergeable into a Result with
// MergeShards. It carries the model dimensions so a merge does not need to
// touch the engine. Go's JSON float64 round-trip is exact, so the weighted
// sums ride the fabric wire bit-identically.
type ShardResult struct {
	Shard int // index within the plan
	Counts
	Mechanisms    int
	DetectorCount int
}

// RunShardOn executes one shard of a planned point on the calling
// goroutine (helped, like RunOn, by st's Crew if it has joined one),
// reusing st's buffers across calls — the partial-run entry point the
// distributed fabric's workers lease units through, and the body of RunOn,
// which runs the one shard of an unsharded plan. The shard samples stream
// `shard` of cfg.Seed, takes plan.ShardTrials(shard) shots, and coordinates
// TargetFailures early stopping and cancellation through budget, which must
// be shared by all shards of the plan. st and budget may be nil for
// one-shot use.
//
// Determinism contract: with no early-stop target and no abort, a shard's
// ShardResult depends only on (cfg, plan, shard) — never on which worker
// runs it or when — so MergeShards of the plan's RunShardOn shards, shard
// i on stream i, is one fixed Result, and for a one-shard plan it is
// RunOn's. With an early-stop target set, the shots a shard takes depend
// on when sibling shards bank their failures; the merge is still
// deterministic in the shard results it is given.
func (en *Engine) RunShardOn(cfg Config, plan ShardPlan, shard int, budget *ShardBudget, st *WorkerState) (ShardResult, error) {
	if st == nil {
		st = &WorkerState{}
	}
	if budget == nil {
		budget = &ShardBudget{}
	}
	if err := cfg.normalize(); err != nil {
		return ShardResult{}, err
	}
	if plan.Shards < 1 || shard < 0 || shard >= plan.Shards {
		return ShardResult{}, fmt.Errorf("montecarlo: shard %d outside plan of %d shards", shard, plan.Shards)
	}
	if plan.Trials != cfg.Trials {
		return ShardResult{}, fmt.Errorf("montecarlo: shard plan covers %d trials but config has %d", plan.Trials, cfg.Trials)
	}
	model, prop, graph, err := en.prepare(cfg, st)
	if err != nil {
		return ShardResult{}, err
	}
	c, err := runCell(model, prop, graph, cfg, shard, plan.ShardTrials(shard), budget, st)
	if err != nil {
		return ShardResult{}, err
	}
	return ShardResult{
		Shard:         shard,
		Counts:        c,
		Mechanisms:    model.Stats.Mechanisms,
		DetectorCount: model.NumDets,
	}, nil
}

// MergeShards folds the shards of one point into a single Result. The fold
// is deterministic in its inputs: counts are summed and the model
// dimensions taken from the lowest shard index that actually ran — a shard
// the fabric coordinator settled empty after its siblings banked the
// early-stop target reports zero Mechanisms and must not blank the merged
// dimensions — so any execution order, and any worker count, produces the
// identical Result for identical shard results. Partial merges (early-stopped or aborted shards) are
// well-formed: Trials reports the shots actually taken.
func MergeShards(cfg Config, parts []ShardResult) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("montecarlo: merge of zero shards")
	}
	// Fold in ascending shard index regardless of arrival order: the integer
	// sums commute, but the weighted float sums do not, and shard-ordered
	// folding is what makes a merge independent of lease-completion order.
	ordered := parts
	if !slices.IsSortedFunc(parts, func(a, b ShardResult) int { return a.Shard - b.Shard }) {
		ordered = slices.Clone(parts)
		slices.SortStableFunc(ordered, func(a, b ShardResult) int { return a.Shard - b.Shard })
	}
	res := Result{Config: cfg}
	first := ordered[0]
	for _, p := range ordered {
		if p.Mechanisms > 0 && (first.Mechanisms == 0 || p.Shard < first.Shard) {
			first = p
		}
		res.Counts.Add(p.Counts)
	}
	res.Mechanisms = first.Mechanisms
	res.DetectorCount = first.DetectorCount
	return res, nil
}
