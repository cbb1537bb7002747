package sched

import (
	"math"
	"slices"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
)

func rareOpts(boost, targetRelErr float64) montecarlo.SweepOptions {
	return montecarlo.SweepOptions{RareEvent: true, Boost: boost, TargetRelErr: targetRelErr}
}

// Weighted sweeps must carry the full determinism contract: every weighted
// tally equals Engine.RunOn's bit for bit across pool widths {1,2,4,8},
// both in Run's results and as streamed through OnResult.
func TestRareSweepDeterministicAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("width matrix; run by the dedicated race-scheduler CI job")
	}
	mk := func() []Job {
		return ThresholdJobs(extract.Baseline, []int{3, 5}, []float64{2e-3, 4e-3},
			hardware.Default(), 4200, 21, montecarlo.UF, rareOpts(2, 0))
	}
	en := montecarlo.NewEngine()
	jobs := mk()
	want := make([]montecarlo.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = en.RunOn(j.Cfg, &montecarlo.WorkerState{}); err != nil {
			t.Fatal(err)
		}
		if w := want[i].Weighted; w.Shots != j.Cfg.Trials || w.SumW <= 0 {
			t.Fatalf("reference cell %d carries no weighted tally: %+v", i, w)
		}
	}
	for _, width := range []int{1, 2, 4, 8} {
		pool := montecarlo.NewEngine()
		results, err := New(pool, Options{Jobs: width}).Run(mk())
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		var streamed []CellResult
		streaming := New(pool, Options{Jobs: width, OnResult: func(r CellResult) {
			streamed = append(streamed, r)
		}})
		if _, err := streaming.Run(mk()); err != nil {
			t.Fatalf("width %d: streamed run: %v", width, err)
		}
		slices.SortFunc(streamed, func(a, b CellResult) int { return a.Index - b.Index })
		for i := range results {
			if results[i].Result != want[i] || streamed[i].Result != want[i] {
				t.Errorf("width %d cell %d: weighted tally diverged from RunOn:\n Run      %+v\n OnResult %+v\n RunOn    %+v",
					width, i, results[i].Result.Weighted, streamed[i].Result.Weighted, want[i].Weighted)
			}
		}
	}
}

// Rare-event cells must rank above their unweighted twins in the cost queue
// (denser syndromes cost more), and the multiplier must be a pure function
// of the Config.
func TestCellCostRareMultiplier(t *testing.T) {
	base := montecarlo.ThresholdCellConfig(extract.Baseline, 5, 1e-3, hardware.Default(),
		10000, 1, montecarlo.UF, montecarlo.SweepOptions{})
	rare := base
	rare.RareEvent, rare.Boost = true, 3
	if !(CellCost(rare) > CellCost(base)) {
		t.Errorf("rare cell cost %g not above plain %g", CellCost(rare), CellCost(base))
	}
	if got, want := CellCost(rare), 3*CellCost(base); math.Abs(got-want) > 1e-9*want {
		t.Errorf("boost-3 cost %g, want %g", got, want)
	}
	def := base
	def.RareEvent = true // zero Boost => DefaultBoost
	if got, want := CellCost(def), montecarlo.DefaultBoost*CellCost(base); math.Abs(got-want) > 1e-9*want {
		t.Errorf("default-boost cost %g, want %g", got, want)
	}
}
