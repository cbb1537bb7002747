package montecarlo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/hardware"
)

func shardTestConfig(trials int) Config {
	return Config{
		Scheme: extract.Baseline, Distance: 3, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(8e-3), Trials: trials, Seed: 99,
	}
}

// PlanShards must be a pure function of (trials, shardShots) with the
// documented floor: thresholds at or below MinShardShots round up to it,
// a budget below twice the (effective) shard size never splits (floor
// division), and no shard is ever smaller than the effective shard size.
func TestPlanShardsFloorAndShape(t *testing.T) {
	cases := []struct {
		trials, shardShots, wantShards int
	}{
		{250, 0, 1},                    // sharding disabled
		{250, 1, 1},                    // threshold below floor, trials below floor
		{MinShardShots, 1, 1},          // exactly at the floor: no split
		{2*MinShardShots - 1, 1, 1},    // partial second chunk folds in
		{2 * MinShardShots, 1, 2},      // two full chunks split
		{4 * MinShardShots, 1, 4},      // clamped threshold divides evenly
		{10_000, 2 * MinShardShots, 4}, // explicit threshold above the floor
		{10_000, 100_000, 1},           // threshold above the budget
		{0, MinShardShots, 1},          // degenerate budget
		{6400, MinShardShots, 6},       // the skewed-benchmark shape
	}
	for _, tc := range cases {
		p := PlanShards(tc.trials, tc.shardShots)
		if p.Shards != tc.wantShards || p.Trials != tc.trials {
			t.Errorf("PlanShards(%d, %d) = %+v, want %d shards over %d trials",
				tc.trials, tc.shardShots, p, tc.wantShards, tc.trials)
		}
		total := 0
		for i := 0; i < p.Shards; i++ {
			n := p.ShardTrials(i)
			if p.Trials > 0 && n <= 0 {
				t.Errorf("plan %+v: shard %d has %d trials", p, i, n)
			}
			if p.Shards > 1 && tc.shardShots > 0 && n < max(tc.shardShots, MinShardShots) {
				t.Errorf("plan %+v: shard %d has %d trials, below the effective shard size %d",
					p, i, n, max(tc.shardShots, MinShardShots))
			}
			total += n
		}
		if total != tc.trials {
			t.Errorf("plan %+v: shard trials sum to %d, want %d", p, total, tc.trials)
		}
	}
}

// runPlan is the reference for a fully executed shard plan: every shard
// through RunShardOn in index order, on one goroutine under one
// ShardBudget, merged by MergeShards. It runs the plan twice more — in
// reverse order on one reused WorkerState, and with every shard on its own
// goroutine — and fails t unless all three merge to the same Result, so no
// execution order, state reuse or concurrency leaks into the bytes. cfg
// must not set an early-stop target, whose shot counts depend on when
// siblings bank theirs.
func runPlan(t *testing.T, en *Engine, cfg Config, plan ShardPlan) Result {
	t.Helper()
	run := func(order []int, concurrent bool) Result {
		var budget ShardBudget
		var st WorkerState
		var wg sync.WaitGroup
		parts := make([]ShardResult, len(order)) // in execution order
		errs := make([]error, len(order))
		for k, shard := range order {
			if !concurrent {
				parts[k], errs[k] = en.RunShardOn(cfg, plan, shard, &budget, &st)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[k], errs[k] = en.RunShardOn(cfg, plan, shard, &budget, nil)
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("shard %d of %d: %v", order[k], plan.Shards, err)
			}
		}
		res, err := MergeShards(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	forward := make([]int, plan.Shards)
	reverse := make([]int, plan.Shards)
	for i := range forward {
		forward[i], reverse[plan.Shards-1-i] = i, i
	}
	want := run(forward, false)
	if got := run(reverse, false); got != want {
		t.Errorf("%d shards in reverse order merged to\n %+v\nin index order to\n %+v", plan.Shards, got, want)
	}
	if got := run(forward, true); got != want {
		t.Errorf("%d concurrent shards merged to\n %+v\nin index order to\n %+v", plan.Shards, got, want)
	}
	return want
}

// The shard identity contract: executing every shard of a plan (in any
// order, here reversed) and merging reproduces runPlan's index-order run
// bit for bit — shard i consumes stream i with the same per/extra trial
// split — and the merged Config is normalized.
func TestMergedShardsMatchMultiWorkerRun(t *testing.T) {
	const trials = 5000
	cfg := shardTestConfig(trials)
	en := NewEngine()

	plan := PlanShards(trials, MinShardShots)
	if plan.Shards < 2 {
		t.Fatalf("plan %+v did not shard", plan)
	}
	var budget ShardBudget
	var st WorkerState
	parts := make([]ShardResult, 0, plan.Shards)
	for i := plan.Shards - 1; i >= 0; i-- { // execution order must not matter
		sr, err := en.RunShardOn(cfg, plan, i, &budget, &st)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if sr.Trials != plan.ShardTrials(i) {
			t.Errorf("shard %d took %d trials, want %d", i, sr.Trials, plan.ShardTrials(i))
		}
		parts = append(parts, sr)
	}
	merged, err := MergeShards(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}

	if want := runPlan(t, en, cfg, plan); merged != want {
		t.Errorf("merged\n %+v\nindex-order plan run\n %+v", merged, want)
	}
	if merged.Trials != trials || merged.Mechanisms == 0 || merged.DetectorCount == 0 {
		t.Errorf("merged %d trials over model dims %d/%d", merged.Trials, merged.Mechanisms, merged.DetectorCount)
	}
	if merged.Config.Decoder != UF {
		t.Errorf("merge did not normalize the config: decoder %q", merged.Config.Decoder)
	}
}

// DecoderStats shard-merge bit-identity: every stage counter is a plain sum
// over disjoint shard streams, so a point's shards merge to the same
// counters in index order, in reverse order and run concurrently (runPlan)
// — at every shard count, for both matcher kinds.
func TestDecoderStatsShardMergeBitIdentity(t *testing.T) {
	for _, dec := range []DecoderKind{UF, Blossom} {
		for _, width := range []int{1, 2, 4, 8} {
			trials := width * MinShardShots
			cfg := shardTestConfig(trials)
			cfg.Decoder = dec
			plan := PlanShards(trials, 1)
			if plan.Shards != width {
				t.Fatalf("%s: PlanShards(%d, 1) gave %d shards, want %d", dec, trials, plan.Shards, width)
			}
			if merged := runPlan(t, NewEngine(), cfg, plan); merged.Stats.IsZero() {
				t.Errorf("%s width %d: all stage counters zero — stats not threaded through the shard path", dec, width)
			}
		}
	}
}

// A single-shard plan through RunShardOn is bit-identical to RunOn: the
// scheduler may route unsharded cells through either entry point.
func TestSingleShardMatchesRunOn(t *testing.T) {
	cfg := shardTestConfig(700)
	en := NewEngine()
	plan := PlanShards(cfg.Trials, 0)
	sr, err := en.RunShardOn(cfg, plan, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trials != want.Trials || sr.Failures != want.Failures {
		t.Errorf("single shard %d/%d failures/trials, RunOn %d/%d",
			sr.Failures, sr.Trials, want.Failures, want.Trials)
	}
}

// A pre-aborted budget stops a shard before its first batch; an abort
// raised mid-run stops it at a batch boundary well short of its allotment.
func TestShardBudgetAbort(t *testing.T) {
	cfg := shardTestConfig(400_000)
	en := NewEngine()
	plan := PlanShards(cfg.Trials, 200_000) // 2 shards big enough to outlive the abort

	var pre ShardBudget
	pre.Abort()
	sr, err := en.RunShardOn(cfg, plan, 0, &pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trials != 0 {
		t.Errorf("pre-aborted shard took %d trials, want 0", sr.Trials)
	}

	var mid ShardBudget
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		mid.Abort()
	}()
	sr, err = en.RunShardOn(cfg, plan, 0, &mid, nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trials >= plan.ShardTrials(0) {
		t.Errorf("aborted shard ran its full %d-trial allotment", sr.Trials)
	}
}

// Cross-shard early stop: once the shared budget banks the target, later
// shards return without sampling. (Timing-free version: run one shard to
// completion with a tiny target, then start a sibling.)
func TestShardSharedEarlyStop(t *testing.T) {
	cfg := shardTestConfig(50_000)
	cfg.TargetFailures = 5
	en := NewEngine()
	plan := PlanShards(cfg.Trials, MinShardShots)
	if plan.Shards < 2 {
		t.Fatalf("plan %+v did not shard", plan)
	}
	var budget ShardBudget
	first, err := en.RunShardOn(cfg, plan, 0, &budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failures < cfg.TargetFailures {
		t.Fatalf("shard 0 stopped with %d failures, target %d (rate too low for the test grid?)",
			first.Failures, cfg.TargetFailures)
	}
	if budget.Failures() < int64(cfg.TargetFailures) {
		t.Errorf("budget banked %d failures, want >= %d", budget.Failures(), cfg.TargetFailures)
	}
	second, err := en.RunShardOn(cfg, plan, 1, &budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Trials != 0 {
		t.Errorf("sibling shard took %d trials after the target was met, want 0", second.Trials)
	}

	merged, err := MergeShards(cfg, []ShardResult{first, second})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Trials != first.Trials || merged.Failures != first.Failures {
		t.Errorf("early-stop merge %d/%d failures/trials, want %d/%d",
			merged.Failures, merged.Trials, first.Failures, first.Trials)
	}
}

// Plan/config mismatches and out-of-range shard indices are errors, not
// silent truncation.
func TestRunShardOnValidation(t *testing.T) {
	cfg := shardTestConfig(5000)
	en := NewEngine()
	plan := PlanShards(cfg.Trials, MinShardShots)
	if _, err := en.RunShardOn(cfg, plan, plan.Shards, nil, nil); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	if _, err := en.RunShardOn(cfg, plan, -1, nil, nil); err == nil {
		t.Error("negative shard index accepted")
	}
	bad := cfg
	bad.Trials = plan.Trials + 1
	if _, err := en.RunShardOn(bad, plan, 0, nil, nil); err == nil {
		t.Error("plan/config trial mismatch accepted")
	}
	if _, err := MergeShards(cfg, nil); err == nil {
		t.Error("empty merge accepted")
	}
}

// TestMergeShardsDimsProvenance is the regression pin for the merge's
// dims-provenance rule (PR 6): model dimensions come from the
// lowest-indexed shard that actually ran, so shards settled as empty by
// the scheduler's (or the fabric coordinator's) banked-target skip never
// blank the merged dimensions — in whatever order the parts arrive, which
// is exactly what lease reassignment perturbs: a re-leased unit's result
// can land after higher-indexed shards already merged their slots.
func TestMergeShardsDimsProvenance(t *testing.T) {
	cfg := shardTestConfig(4096)
	real := func(shard int) ShardResult {
		return ShardResult{
			Shard: shard, Counts: Counts{Trials: 1024, Failures: shard + 1},
			Mechanisms: 77, DetectorCount: 24,
		}
	}
	settled := func(shard int) ShardResult { return ShardResult{Shard: shard} }

	t.Run("lowest shard settled", func(t *testing.T) {
		res, err := MergeShards(cfg, []ShardResult{settled(0), settled(1), real(2), real(3)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mechanisms != 77 || res.DetectorCount != 24 {
			t.Fatalf("dims %d/%d, want 77/24 from lowest non-empty shard", res.Mechanisms, res.DetectorCount)
		}
		if res.Trials != 2048 || res.Failures != 3+4 {
			t.Fatalf("tallies %d/%d, want 2048 trials, 7 failures", res.Trials, res.Failures)
		}
	})

	t.Run("order independent", func(t *testing.T) {
		// Every arrival order a reassignment race can produce must merge to
		// the identical Result — including orders where a settled shard with
		// a lower index arrives after the real ones.
		parts := []ShardResult{settled(1), real(0), real(3), settled(2)}
		want, err := MergeShards(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
		for _, perm := range perms {
			shuffled := make([]ShardResult, len(parts))
			for i, p := range perm {
				shuffled[i] = parts[p]
			}
			got, err := MergeShards(cfg, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("order %v: merged %+v, want %+v", perm, got, want)
			}
		}
		if want.Mechanisms != 77 || want.DetectorCount != 24 {
			t.Fatalf("dims %d/%d, want 77/24", want.Mechanisms, want.DetectorCount)
		}
	})

	t.Run("all shards settled", func(t *testing.T) {
		// Unreachable through the scheduler (a cell's target can only be
		// banked by one of its own shards, so at least one always runs), but
		// the merge must stay well-formed if it ever happens: zero tallies,
		// zero dims, no error.
		res, err := MergeShards(cfg, []ShardResult{settled(0), settled(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 0 || res.Failures != 0 || res.Mechanisms != 0 || res.DetectorCount != 0 {
			t.Fatalf("all-settled merge not empty: %+v", res)
		}
	})
}
