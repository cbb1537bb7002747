package sched

import (
	"cmp"
	"slices"

	"repro/internal/montecarlo"
)

// DrainOrder returns the job indices in the order a pool drains them:
// cheapest cell first by CellCost, ties in submission order. It is a pure
// function of the job specs, so the queue is identical at every pool
// width. Consumers stream cells as they finish, and cheapest-first hands
// them most of a grid early; the costliest cells run last, helped by every
// idle worker (see the package doc, and fabric.BuildUnitQueue for why the
// fabric leases longest first).
func DrainOrder(jobs []Job) []int {
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(CellCost(jobs[a].Cfg), CellCost(jobs[b].Cfg))
	})
	return idx
}

// CellCost estimates the relative decode cost of one sweep cell for queue
// ordering: the product of the dem.Structure dimensions its Config implies —
// detectors per round (the d^2-1 stabilizer measurements of a rotated
// distance-d surface code patch), measurement rounds (Config.Rounds, or d
// when zero, matching extract's default), and the trial budget.
//
// The estimate ignores the physical error rate, and decode cost is far
// from linear in detectors x rounds across rates: denser syndromes grow
// bigger clusters. Measured on a Compact-Interleaved d=11 cell with 1000
// union-find trials, the cell takes 76 ms at p=0.002 and 1.50 s at
// p=0.02, a 20x spread the estimate does not see (49 ms and 1.05 s, 21x,
// on a 2-vCPU Xeon VM). Within one distance the order therefore falls
// back on submission order, and Fig. 11 grids submit their rates in
// ascending order, which is already cheapest first.
//
// The estimate deliberately never touches the engine: cells are ordered
// before any structure is built, so the cost model must be derivable from
// the Config alone. It does not need to be calibrated in absolute terms —
// only monotone in the true cost across the cells of one queue — and it is
// a pure function, so the queue order is identical at every pool width.
func CellCost(cfg montecarlo.Config) float64 {
	d := cfg.Distance
	if d < 1 {
		d = 1
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = d
	}
	dets := d*d - 1
	if dets < 1 {
		dets = 1
	}
	trials := cfg.Trials
	if trials < 1 {
		trials = 1
	}
	cost := float64(dets) * float64(rounds) * float64(trials)
	if cfg.RareEvent {
		// Importance-sampled cells fire mechanisms ~Boost times as often, so
		// their syndromes are denser and the matcher does proportionally more
		// work per shot. Still a pure function of the Config (DefaultBoost is
		// what normalize fills for a zero Boost).
		boost := cfg.Boost
		if boost < 1 {
			boost = montecarlo.DefaultBoost
		}
		cost *= boost
	}
	return cost
}
