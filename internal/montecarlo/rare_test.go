package montecarlo

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

func rareTestConfig(d int, phys float64, trials int) Config {
	return Config{
		Scheme: extract.Baseline, Distance: d, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(phys), Trials: trials, Seed: 4242,
		RareEvent: true, Boost: 2,
	}
}

// Boost = 1 makes the proposal equal the target: the weighted run must
// consume the identical RNG stream, observe the identical failing shots,
// carry weight exactly 1 on every shot, and report an estimate exactly
// equal to the unweighted failure fraction.
func TestRareBoostOneMatchesUnweighted(t *testing.T) {
	en := NewEngine()
	cfg := rareTestConfig(3, 6e-3, 8192)
	cfg.Boost = 1
	weighted, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.RareEvent, plain.Boost = false, 0
	unweighted, err := en.RunOn(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Failures != unweighted.Failures || weighted.Trials != unweighted.Trials {
		t.Fatalf("boost-1 counts diverged: weighted %d/%d, unweighted %d/%d",
			weighted.Failures, weighted.Trials, unweighted.Failures, unweighted.Trials)
	}
	if weighted.Skipped != unweighted.Skipped || weighted.DedupHits != unweighted.DedupHits {
		t.Fatalf("boost-1 pipeline counters diverged: %d/%d vs %d/%d",
			weighted.Skipped, weighted.DedupHits, unweighted.Skipped, unweighted.DedupHits)
	}
	wr := weighted.Weighted
	if wr.Shots != cfg.Trials || wr.SumW != float64(cfg.Trials) || wr.SumW2 != float64(cfg.Trials) {
		t.Fatalf("boost-1 weights not exactly 1: %+v", wr)
	}
	if wr.SumWFail != float64(unweighted.Failures) || wr.MaxW != 1 {
		t.Fatalf("boost-1 failure weights not exactly 1: %+v", wr)
	}
	if got, want := weighted.Rate(), unweighted.Rate(); got != want {
		t.Fatalf("boost-1 estimate %g != unweighted rate %g", got, want)
	}
	if ess := weighted.ESS(); ess != float64(cfg.Trials) {
		t.Fatalf("boost-1 ESS %g, want exactly %v", ess, cfg.Trials)
	}
}

// The weighted estimator must agree with brute force where both converge:
// d∈{3,5} overlap cells at several boosts, each estimate within 3σ of the
// combined error bars of the weighted run and a RunReference baseline.
func TestRareCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweeps are slow")
	}
	en := NewEngine()
	cells := []struct {
		d      int
		phys   float64
		trials int
	}{
		{3, 2e-3, 60000},
		{3, 4e-3, 30000},
		{5, 2e-3, 60000},
		{5, 4e-3, 30000},
	}
	for _, cell := range cells {
		ref := Config{
			Scheme: extract.Baseline, Distance: cell.d, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(cell.phys),
			Trials: cell.trials, Seed: 7001,
		}
		brute, err := RunReference(ref)
		if err != nil {
			t.Fatal(err)
		}
		if brute.Failures == 0 {
			t.Fatalf("d=%d p=%g: reference cell saw no failures; not an overlap cell", cell.d, cell.phys)
		}
		for _, boost := range []float64{1, 2, 4} {
			cfg := ref
			cfg.Seed = 7002 // independent stream from the reference
			cfg.RareEvent, cfg.Boost = true, boost
			res, err := en.RunOn(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			est, se := res.Rate(), res.StdErr()
			bEst, bSE := brute.Rate(), brute.StdErr()
			sigma := math.Sqrt(se*se + bSE*bSE)
			if z := math.Abs(est-bEst) / sigma; z > 3 {
				t.Errorf("d=%d p=%g boost=%g: weighted %.4g±%.2g vs brute %.4g±%.2g (z=%.2f)",
					cell.d, cell.phys, boost, est, se, bEst, bSE, z)
			}
			if boost == 1 && res.Weighted.ESS() != float64(res.Trials) {
				t.Errorf("d=%d p=%g: boost-1 ESS %g != trials %d", cell.d, cell.phys, res.Weighted.ESS(), res.Trials)
			}
		}
	}
}

// Weighted results must be bit-identical across shard execution orders:
// merged shards must equal runPlan's index-order run exactly (which runPlan
// also holds its reversed and concurrent runs to), and RunOn must equal
// the one-shard plan — the Result/ShardResult contract extended to the
// float sums.
func TestRareShardWidthDeterminism(t *testing.T) {
	en := NewEngine()
	cfg := rareTestConfig(3, 4e-3, 8192)
	on, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single := runPlan(t, en, cfg, ShardPlan{Shards: 1, Trials: cfg.Trials}); on != single {
		t.Fatalf("RunOn diverged from the one-shard plan:\n%+v\n%+v", on.Weighted, single.Weighted)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		plan := ShardPlan{Shards: shards, Trials: cfg.Trials}
		ref := runPlan(t, en, cfg, plan)
		var budget ShardBudget
		var st WorkerState
		parts := make([]ShardResult, shards)
		// Execute shards in reverse on one reused WorkerState: arrival order
		// and state reuse must not leak into the merged sums.
		for s := shards - 1; s >= 0; s-- {
			parts[s], err = en.RunShardOn(cfg, plan, s, &budget, &st)
			if err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeShards(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Weighted != ref.Weighted {
			t.Fatalf("shards=%d: merged weighted tally diverged from runPlan:\n%+v\n%+v",
				shards, merged.Weighted, ref.Weighted)
		}
		if merged.Failures != ref.Failures || merged.Trials != ref.Trials {
			t.Fatalf("shards=%d: merged counts %d/%d vs runPlan %d/%d",
				shards, merged.Failures, merged.Trials, ref.Failures, ref.Trials)
		}
		// Arrival-order invariance: merging a rotated slice folds the same.
		rotated := append(append([]ShardResult(nil), parts[1:]...), parts[0])
		remerged, err := MergeShards(cfg, rotated)
		if err != nil {
			t.Fatal(err)
		}
		if remerged.Weighted != merged.Weighted {
			t.Fatalf("shards=%d: merge depends on part order", shards)
		}
	}
}

// Pipeline on/off must not change the weighted sums — the shared ordered
// accumulation loop's contract.
func TestRarePipelineBitIdentity(t *testing.T) {
	en := NewEngine()
	cfg := rareTestConfig(5, 2e-3, 8192)
	onRes, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePipeline = true
	offRes, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if onRes.Weighted != offRes.Weighted || onRes.Failures != offRes.Failures {
		t.Fatalf("pipeline switch changed weighted tally:\non:  %+v\noff: %+v", onRes.Weighted, offRes.Weighted)
	}
}

// TargetRelErr must stop a convergent point early with the target actually
// met, and leave Trials reporting the shots taken.
func TestRareTargetRelErrEarlyStop(t *testing.T) {
	en := NewEngine()
	cfg := rareTestConfig(3, 8e-3, 2_000_000)
	cfg.TargetRelErr = 0.25
	res, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials >= cfg.Trials {
		t.Fatalf("early stop never engaged: took all %d trials", res.Trials)
	}
	if re := res.RelErr(); !(re <= cfg.TargetRelErr) {
		t.Fatalf("stopped at relative error %g, target %g", re, cfg.TargetRelErr)
	}
	if res.Weighted.Estimate() <= 0 {
		t.Fatal("early-stopped point has no estimate")
	}
}

// ESS partition invariants: the weighted sums partition exactly across a
// shard plan (each component of the merged tally is the ordered sum of the
// parts), and the effective sample sizes obey their bounds.
func TestRareESSPartitionInvariants(t *testing.T) {
	en := NewEngine()
	cfg := rareTestConfig(3, 4e-3, 8192)
	plan := ShardPlan{Shards: 4, Trials: cfg.Trials}
	var budget ShardBudget
	parts := make([]ShardResult, plan.Shards)
	var err error
	for s := range parts {
		parts[s], err = en.RunShardOn(cfg, plan, s, &budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		wr := parts[s].Weighted
		if wr.Shots != plan.ShardTrials(s) {
			t.Fatalf("shard %d: %d weighted shots, want %d", s, wr.Shots, plan.ShardTrials(s))
		}
		if ess := wr.ESS(); ess <= 0 || ess > float64(wr.Shots)*(1+1e-12) {
			t.Fatalf("shard %d: ESS %g outside (0, shots=%d]", s, ess, wr.Shots)
		}
	}
	var manual WeightedResult
	for _, p := range parts {
		manual.Add(p.Weighted)
	}
	merged, err := MergeShards(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Weighted != manual {
		t.Fatalf("merge does not partition: %+v vs %+v", merged.Weighted, manual)
	}
	if merged.Weighted.Shots != cfg.Trials {
		t.Fatalf("merged shots %d, want %d", merged.Weighted.Shots, cfg.Trials)
	}
	if fess := merged.Weighted.FailESS(); fess > float64(merged.Failures)*(1+1e-12) {
		t.Fatalf("FailESS %g exceeds failure count %d", fess, merged.Failures)
	}
}

// Empirical coverage of the reported error bar: over repeat-seed runs of
// one cell, ~95% of the 2σ intervals must cover the pooled mean. The seeds
// are pinned, so this is a deterministic regression gate on the variance
// estimator, not a flaky tolerance.
func TestRareCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage batch is slow")
	}
	en := NewEngine()
	const repeats = 40
	ests := make([]float64, repeats)
	ses := make([]float64, repeats)
	for i := 0; i < repeats; i++ {
		cfg := rareTestConfig(3, 4e-3, 16384)
		cfg.Seed = int64(100 + i*31)
		res, err := en.RunOn(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ests[i], ses[i] = res.Rate(), res.StdErr()
		if ses[i] <= 0 {
			t.Fatalf("repeat %d: zero error bar", i)
		}
	}
	pooled := 0.0
	for _, e := range ests {
		pooled += e
	}
	pooled /= repeats
	covered := 0
	for i := range ests {
		if math.Abs(ests[i]-pooled) <= 2*ses[i] {
			covered++
		}
	}
	// Binomial(40, 0.954) rarely dips below 33; the pinned seeds hold it.
	if covered < 33 {
		t.Fatalf("2σ coverage %d/%d, want >= 33", covered, repeats)
	}
}

// Boosting must buy relative error at fixed shots in the rare regime: the
// boosted runs observe failures a brute-force run of the same length cannot,
// and more boost (within the profitable band) means a tighter error bar.
func TestRareBoostImprovesRelErr(t *testing.T) {
	if testing.Short() {
		t.Skip("boost sweep is slow")
	}
	en := NewEngine()
	relErrs := map[float64]float64{}
	for _, boost := range []float64{1, 1.5, 2} {
		cfg := rareTestConfig(5, 1e-3, 65536)
		cfg.Boost = boost
		res, err := en.RunOn(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		relErrs[boost] = res.RelErr()
	}
	if !(relErrs[2] < relErrs[1.5]) || !(relErrs[1.5] < relErrs[1]) {
		t.Fatalf("relative error not improved by boost: %v", relErrs)
	}
}

// Configuration validation: the rare-event knobs must be rejected outside
// their domain and outside rare mode.
func TestRareConfigValidation(t *testing.T) {
	base := rareTestConfig(3, 4e-3, 1024)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"boost without rare", func(c *Config) { c.RareEvent = false; c.TargetRelErr = 0 }},
		{"target-rel-err without rare", func(c *Config) { c.RareEvent = false; c.Boost = 0; c.TargetRelErr = 0.1 }},
		{"boost below one", func(c *Config) { c.Boost = 0.5 }},
		{"negative boost", func(c *Config) { c.Boost = -2 }},
		{"NaN boost", func(c *Config) { c.Boost = math.NaN() }},
		{"infinite boost", func(c *Config) { c.Boost = math.Inf(1) }},
		{"target failures in rare mode", func(c *Config) { c.TargetFailures = 10 }},
		{"negative target rel err", func(c *Config) { c.TargetRelErr = -0.1 }},
	}
	en := NewEngine()
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := en.RunOn(cfg, nil); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	// Default boost fills in.
	cfg := base
	cfg.Boost = 0
	res, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Boost != DefaultBoost {
		t.Errorf("default boost not applied: %g", res.Config.Boost)
	}
	// RunReference refuses rare mode.
	if _, err := RunReference(base); err == nil {
		t.Error("RunReference accepted rare-event mode")
	}
}

// WeightedResult's accessors must handle the degenerate tallies the
// executors can produce.
func TestWeightedResultEdgeCases(t *testing.T) {
	var empty WeightedResult
	if empty.Estimate() != 0 || empty.StdErr() != 0 || empty.RelErr() != 0 || empty.ESS() != 0 || empty.FailESS() != 0 {
		t.Fatalf("empty tally not all-zero: %+v", empty)
	}
	if empty.RelErrMet(0.1) {
		t.Fatal("empty tally met a relative-error target")
	}
	var noFail WeightedResult
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		noFail.addShot(0.5+rng.Float64(), false)
	}
	if noFail.Estimate() != 0 || !math.IsInf(noFail.RelErr(), 1) {
		t.Fatalf("failure-free tally: estimate %g relerr %g", noFail.Estimate(), noFail.RelErr())
	}
	if noFail.RelErrMet(0.5) {
		t.Fatal("failure-free tally met a relative-error target")
	}
	var one WeightedResult
	one.addShot(2, true)
	if one.Variance() != 0 {
		t.Fatalf("single-shot variance %g, want 0", one.Variance())
	}
	if !one.RelErrMet(0) {
		// target <= 0 never stops, even with an estimate standing
		_ = one
	} else {
		t.Fatal("zero target stopped the run")
	}
}
