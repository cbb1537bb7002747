package sched

import (
	"sync"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
)

// Two schedulers on one engine run at once, round after round, and their
// pool workers draw states from the engine's one free list: a state that
// decoded one job's union-find d=3 cell goes on to another job's blossom
// d=5 or rare-event d=5 cell. Every cell must still equal RunOn on a fresh
// state, and the engine must create no more states than the two pools
// ever held at once.
func TestConcurrentJobsShareWarmStates(t *testing.T) {
	const width, rounds = 2, 3
	cell := func(scheme extract.Scheme, d int, p float64, trials int, seed int64, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) Job {
		return Job{Cfg: montecarlo.ThresholdCellConfig(scheme, d, p, hardware.Default(), trials, seed, dec, opts)}
	}
	mix := func(seed int64) []Job {
		return []Job{
			cell(extract.Baseline, 3, 4e-3, 640, seed, montecarlo.UF, montecarlo.SweepOptions{}),
			cell(extract.CompactInterleaved, 5, 4e-3, 256, seed, montecarlo.Blossom, montecarlo.SweepOptions{}),
			cell(extract.Baseline, 5, 2e-3, 640, seed, montecarlo.UF, rareOpts(2, 0)),
		}
	}
	en := montecarlo.NewEngine()
	jobs := [2][]Job{mix(3), mix(4)}
	// The second job submits its cells in the other order; both drain
	// cheapest first, so each worker's state crosses kinds from cell to
	// cell in either job.
	jobs[1][0], jobs[1][2] = jobs[1][2], jobs[1][0]
	var want [2][]montecarlo.Result
	for k := range jobs {
		for _, j := range jobs[k] {
			r, err := en.RunOn(j.Cfg, &montecarlo.WorkerState{})
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], r)
		}
	}
	for round := range rounds {
		var got [2][]CellResult
		var errs [2]error
		var wg sync.WaitGroup
		for k := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k], errs[k] = New(en, Options{Jobs: width}).Run(jobs[k])
			}()
		}
		wg.Wait()
		for k := range jobs {
			if errs[k] != nil {
				t.Fatalf("round %d job %d: %v", round, k, errs[k])
			}
			for i, r := range got[k] {
				if r.Result != want[k][i] {
					t.Errorf("round %d job %d cell %d (%s d=%d): on shared states\n %+v\nfresh RunOn\n %+v",
						round, k, i, r.Job.Cfg.Decoder, r.Job.Cfg.Distance, r.Result, want[k][i])
				}
			}
		}
	}
	if made := en.CacheStats().WorkerStates; made < 1 || made > 2*width {
		t.Errorf("%d rounds of two width-%d jobs created %d worker states, want at most %d", rounds, width, made, 2*width)
	}
}
