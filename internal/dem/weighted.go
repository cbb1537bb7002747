package dem

import (
	"fmt"
	"math"
)

// WeightedBatchSampler draws shots from a *proposal* error model and tracks,
// per shot, the log likelihood ratio of the *target* model against the
// proposal — the importance-sampling weight that makes tallies under the
// proposal unbiased estimates of target-model expectations:
//
//	w(shot) = P_target(shot) / P_proposal(shot)
//	        = Π_k  p_k/q_k          (entry k fired)
//	          Π_k  (1-p_k)/(1-q_k)  (entry k did not fire)
//
// which in log space is a per-shot base (every entry's no-fire contribution)
// plus one increment per firing entry:
//
//	log w = Σ_k [log1p(-p_k) - log1p(-q_k)]                      (base)
//	      + Σ_{fired k} [(log p_k - log q_k) - (log1p(-p_k) - log1p(-q_k))]
//
// The sampler piggybacks on BatchSampler's geometric-skip hot loop: weight
// bookkeeping costs one float add per *firing* entry, not per entry, so a
// weighted batch is barely more expensive than a plain one. When target and
// proposal agree (boost = 1) both terms are computed as exact 0.0, every
// weight is exactly 1.0, and RNG consumption is bit-identical to a plain
// BatchSampler over the same model — the degenerate case collapses to the
// unweighted sampler by construction, not by approximation.
//
// Not safe for concurrent use; create one per goroutine.
type WeightedBatchSampler struct {
	BatchSampler
	lam []float64 // backing for BatchSampler.wlam, reused across Resets
}

// NewWeightedBatchSampler returns a sampler drawing from proposal and
// weighting against target. The models must align: same detector count, same
// mechanism list (footprints and observable flags), and per mechanism the
// proposal may change the probability only within the open interval — an
// entry the target can fire (p > 0) must remain fireable under the proposal
// (q > 0), and the always-fire classes (p >= 1 ⇔ q >= 1) must match, or the
// likelihood ratio is undefined/degenerate.
func NewWeightedBatchSampler(target, proposal *Model) (*WeightedBatchSampler, error) {
	ws := &WeightedBatchSampler{}
	if err := ws.Reset(target, proposal); err != nil {
		return nil, err
	}
	return ws, nil
}

// Reset rebinds the sampler to a new target/proposal pair, reusing buffers
// and evaluating logarithms once per distinct value like BatchSampler.Reset.
// Calling the embedded BatchSampler.Reset directly instead drops the
// sampler back to plain unweighted mode.
func (ws *WeightedBatchSampler) Reset(target, proposal *Model) error {
	if err := checkWeightable(target, proposal); err != nil {
		return err
	}
	ws.BatchSampler.Reset(proposal)
	ws.lam = ws.lam[:0]
	base := 0.0
	// d and lam belong to the (lastP, lastQ) pair, reused while consecutive
	// entries repeat it, as most do: skipping their map lookups cuts Reset
	// about 2.5x on a Baseline d=11 rare-event cell.
	var d, lam float64
	lastP, lastQ := -1.0, -1.0
	for k, mi := range ws.mech {
		p, q := target.Mechs[mi].P, ws.p[k]
		if p != lastP || q != lastQ {
			tp := ws.terms(p)
			lq1 := ws.logq[k]  // log1p(-q), shared with the skip-sampler tables
			d = tp.log1m - lq1 // log1p(-p) - log1p(-q); identical computation ⇒ exact 0 when p == q
			lam = (tp.log - ws.terms(q).log) - d
			lastP, lastQ = p, q
		}
		base += d
		ws.lam = append(ws.lam, lam)
	}
	ws.wlam = ws.lam
	ws.wbase = base
	return nil
}

// BaseLogWeight returns the no-fire log weight every shot starts from.
func (ws *WeightedBatchSampler) BaseLogWeight() float64 { return ws.wbase }

// LogWeight returns shot s's log likelihood ratio from the last
// Sample/SampleN call.
func (ws *WeightedBatchSampler) LogWeight(s int) float64 {
	if s < 0 || s >= ws.n {
		panic(fmt.Sprintf("dem: shot %d outside drawn batch of %d", s, ws.n))
	}
	return ws.logw[s]
}

// Weight returns shot s's likelihood ratio exp(LogWeight(s)).
func (ws *WeightedBatchSampler) Weight(s int) float64 {
	return math.Exp(ws.LogWeight(s))
}

// checkWeightable validates that proposal is an importance-sampling proposal
// for target: identical topology, and probability changes confined to (0, 1).
func checkWeightable(target, proposal *Model) error {
	if target == nil || proposal == nil {
		return fmt.Errorf("dem: weighted sampler needs both target and proposal models")
	}
	if target.NumDets != proposal.NumDets {
		return fmt.Errorf("dem: weighted sampler detector mismatch: target %d, proposal %d",
			target.NumDets, proposal.NumDets)
	}
	if len(target.Mechs) != len(proposal.Mechs) {
		return fmt.Errorf("dem: weighted sampler mechanism count mismatch: target %d, proposal %d",
			len(target.Mechs), len(proposal.Mechs))
	}
	for i := range target.Mechs {
		t, q := &target.Mechs[i], &proposal.Mechs[i]
		if t.Obs != q.Obs || !sameFootprint(t.Dets, q.Dets) {
			return fmt.Errorf("dem: weighted sampler footprint mismatch at mechanism %d", i)
		}
		switch {
		case (t.P <= 0) != (q.P <= 0):
			return fmt.Errorf("dem: weighted sampler zero-support mismatch at mechanism %d: target p=%g, proposal q=%g",
				i, t.P, q.P)
		case (t.P >= 1) != (q.P >= 1):
			return fmt.Errorf("dem: weighted sampler always-fire mismatch at mechanism %d: target p=%g, proposal q=%g",
				i, t.P, q.P)
		}
	}
	return nil
}

// sameFootprint reports whether two detector lists are identical, with a
// same-backing fast path for models sharing one Structure.
func sameFootprint(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
