package montecarlo

import (
	"fmt"
	"math"

	"repro/internal/dem"
)

// DefaultBoost is the proposal inflation factor used when Config.RareEvent
// is set without an explicit Boost. Deep below threshold a logical failure
// needs ~(d+1)/2 coincident mechanism fires, so boosting every fault source
// by b multiplies the failure-observation rate by roughly b^((d+1)/2) while
// the likelihood-ratio weight spread grows only as exp(λ(b-1)²/b) in the
// expected fire count λ; b = 2 sits on the profitable side of that tradeoff
// for the whole d ≥ 7, p ≤ 2e-3 band this mode exists for. Cells with small
// λ (low d, low p) tolerate — and benefit from — larger boosts; tune per
// cell via Config.Boost.
const DefaultBoost = 2.0

// WeightedResult is the importance-sampling tally of one rare-event point:
// running sums of the likelihood-ratio weights over all shots and over
// failing shots, from which the unbiased estimate, its sampling error, and
// the effective sample size all derive. The sums are plain in-order
// accumulations — each shard adds its 64-shot batches in shot order, and
// merges fold parts in shard-index order — so a merged WeightedResult is
// bit-identical at any pool width or fabric worker count, the same
// contract the integer tallies have always had.
type WeightedResult struct {
	// Shots is the number of weighted shots accumulated.
	Shots int
	// SumW and SumW2 sum w and w² over every shot (failing or not); their
	// ratio gives the Kish effective sample size.
	SumW  float64
	SumW2 float64
	// SumWFail and SumW2Fail sum w and w² over failing shots only — the
	// estimator numerator and its variance mass.
	SumWFail  float64
	SumW2Fail float64
	// MaxW is the largest single-shot weight seen: a diagnostic for proposal
	// quality (one weight dominating the sum means the error bar is not yet
	// trustworthy).
	MaxW float64
}

// addShot folds one shot's weight into the tally.
func (wr *WeightedResult) addShot(w float64, fail bool) {
	wr.Shots++
	wr.SumW += w
	wr.SumW2 += w * w
	if fail {
		wr.SumWFail += w
		wr.SumW2Fail += w * w
	}
	if w > wr.MaxW {
		wr.MaxW = w
	}
}

// Add folds another tally into wr. Addition order matters bit-wise: callers
// merge in shard index order (MergeShards) so identical parts
// always fold to identical sums.
func (wr *WeightedResult) Add(o WeightedResult) {
	wr.Shots += o.Shots
	wr.SumW += o.SumW
	wr.SumW2 += o.SumW2
	wr.SumWFail += o.SumWFail
	wr.SumW2Fail += o.SumW2Fail
	if o.MaxW > wr.MaxW {
		wr.MaxW = o.MaxW
	}
}

// Estimate returns the importance-sampling estimate of the logical error
// rate: the mean of w·1[fail] over all shots, which is unbiased for the
// target-model failure probability for any proposal that can reach every
// failing configuration.
func (wr WeightedResult) Estimate() float64 {
	if wr.Shots == 0 {
		return 0
	}
	return wr.SumWFail / float64(wr.Shots)
}

// Variance returns the estimated variance of Estimate (the sample variance
// of w·1[fail] divided by the shot count).
func (wr WeightedResult) Variance() float64 {
	if wr.Shots < 2 {
		return 0
	}
	n := float64(wr.Shots)
	mu := wr.SumWFail / n
	s2 := (wr.SumW2Fail - n*mu*mu) / (n - 1)
	if s2 < 0 {
		s2 = 0 // float cancellation guard
	}
	return s2 / n
}

// StdErr returns the standard error of Estimate.
func (wr WeightedResult) StdErr() float64 { return math.Sqrt(wr.Variance()) }

// RelErr returns StdErr/Estimate — the quantity TargetRelErr stops on. With
// no failures observed yet the relative error is +Inf (the estimate is 0
// with no evidence); with no shots at all it is 0 (an empty tally).
func (wr WeightedResult) RelErr() float64 {
	mu := wr.Estimate()
	if mu <= 0 {
		if wr.Shots > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return wr.StdErr() / mu
}

// ESS returns the Kish effective sample size (ΣW)²/ΣW²: how many unweighted
// shots the weighted sample is statistically worth. Equal weights give
// ESS == Shots; a degenerate proposal collapses it toward 1.
func (wr WeightedResult) ESS() float64 {
	if wr.SumW2 <= 0 {
		return 0
	}
	return wr.SumW * wr.SumW / wr.SumW2
}

// FailESS returns the effective number of independent failure observations
// (ΣW_fail)²/ΣW²_fail — the number that actually bounds the error bar.
// Below ~10 the reported RelErr should not be trusted.
func (wr WeightedResult) FailESS() float64 {
	if wr.SumW2Fail <= 0 {
		return 0
	}
	return wr.SumWFail * wr.SumWFail / wr.SumW2Fail
}

// RelErrMet reports whether the tally has a positive estimate whose relative
// error is at or below target (target <= 0 never stops).
func (wr WeightedResult) RelErrMet(target float64) bool {
	return target > 0 && wr.Estimate() > 0 && wr.RelErr() <= target
}

// boostProbs maps a target noise vector to the inflated proposal:
// probabilities in (0, 0.5) scale by boost and clamp at 0.5 (a mechanism
// boosted past even odds stops being "rare" and only degrades the weights);
// zeros stay zero and anything at or above 0.5 is left alone, so the
// always-fire and zero-support classes match the target exactly.
func boostProbs(boost float64, probs, dst []float64) []float64 {
	for _, p := range probs {
		q := p
		if p > 0 && p < 0.5 {
			q = math.Min(boost*p, 0.5)
		}
		dst = append(dst, q)
	}
	return dst
}

// alignProposal patches the folded proposal model so its zero-support and
// always-fire mechanism classes match the target's exactly — the weighted
// sampler's validity precondition. XOR-folding boosted sources preserves
// the classes in every realistic model (the fold of positives is positive),
// but extreme parameter corners can collapse a fold to the boundary; pinning
// those mechanisms to the target probability keeps the likelihood ratio
// defined at the cost of not inflating them.
func alignProposal(target, prop *dem.Model) {
	for i := range target.Mechs {
		p, q := target.Mechs[i].P, prop.Mechs[i].P
		if (p <= 0) != (q <= 0) || (p >= 1) != (q >= 1) {
			prop.Mechs[i].P = p
		}
	}
}

// normalizeRare validates the rare-event half of a Config, filling the
// default boost. Split out of normalize for readability.
func (cfg *Config) normalizeRare() error {
	if !cfg.RareEvent {
		if cfg.Boost != 0 {
			return fmt.Errorf("montecarlo: Boost requires RareEvent mode")
		}
		if cfg.TargetRelErr != 0 {
			return fmt.Errorf("montecarlo: TargetRelErr requires RareEvent mode")
		}
		return nil
	}
	if cfg.Boost == 0 {
		cfg.Boost = DefaultBoost
	}
	if math.IsNaN(cfg.Boost) || math.IsInf(cfg.Boost, 0) || cfg.Boost < 1 {
		return fmt.Errorf("montecarlo: boost must be a finite factor >= 1, got %g", cfg.Boost)
	}
	if cfg.TargetFailures > 0 {
		return fmt.Errorf("montecarlo: TargetFailures is undefined for weighted estimates; use TargetRelErr")
	}
	if math.IsNaN(cfg.TargetRelErr) || cfg.TargetRelErr < 0 {
		return fmt.Errorf("montecarlo: target relative error must be >= 0, got %g", cfg.TargetRelErr)
	}
	return nil
}
