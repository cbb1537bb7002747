package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
)

// skewedJobs builds the stress grid: many tiny cells plus one huge cell
// whose trial budget dwarfs them, the shape where idle workers helping
// the last running cell matter: the pool drains cheapest first, so the
// huge cell starts last.
func skewedJobs(tiny, hugeTrials int, opts montecarlo.SweepOptions) []Job {
	jobs := ThresholdJobs(extract.Baseline, []int{3}, montecarlo.DefaultPhysRates(8),
		hardware.Default(), tiny, 31, montecarlo.UF, opts)
	// Duplicate the tiny row at shifted seeds for queue pressure.
	for i, n := 0, len(jobs); i < 4*n; i++ {
		j := jobs[i%n]
		j.Cfg.Seed += int64(1000 * (i/n + 1))
		jobs = append(jobs, j)
	}
	huge := montecarlo.ThresholdCellConfig(extract.Baseline, 5, 8e-3, hardware.Default(),
		hugeTrials, 31, montecarlo.UF, opts)
	jobs = append(jobs, Job{Cfg: huge, Tag: ThresholdCell{Scheme: extract.Baseline, Distance: 5, Phys: 8e-3}})
	return jobs
}

// The skewed-grid stress leg of the -race CI job: 40 tiny cells plus one
// huge cell at width 8, twice — the tiny cells' workers go idle early and
// help decode the huge cell under real contention — pinning run-to-run
// determinism of every cell's counts.
func TestStressSkewedGridStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("stress grid; run by the dedicated race-scheduler CI job")
	}
	const hugeTrials = 60_000
	var ref []CellResult
	for rep := 0; rep < 2; rep++ {
		s := New(montecarlo.NewEngine(), Options{Jobs: 8})
		results, err := s.Run(skewedJobs(200, hugeTrials, montecarlo.SweepOptions{}))
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		huge := results[len(results)-1]
		if huge.Result.Trials != hugeTrials {
			t.Fatalf("rep %d: huge cell ran %d trials, want %d (partial cell escaped)",
				rep, huge.Result.Trials, hugeTrials)
		}
		if ref == nil {
			ref = results
			continue
		}
		for i := range results {
			a, b := results[i].Result, ref[i].Result
			if a != b {
				t.Errorf("cell %d: rep1 %d/%d vs rep0 %d/%d failures/trials",
					i, a.Failures, a.Trials, b.Failures, b.Trials)
			}
		}
	}
}

// Early stop under contention: every cell carries a failure target, idle
// workers decode the huge cell's batches while its owner folds them, and
// the cell must respect both the target and the trial cap.
func TestStressSharedEarlyStopAcrossShards(t *testing.T) {
	const (
		hugeTrials = 200_000
		target     = 40
	)
	s := New(montecarlo.NewEngine(), Options{Jobs: 8})
	results, err := s.Run(skewedJobs(150, hugeTrials, montecarlo.SweepOptions{TargetFailures: target}))
	if err != nil {
		t.Fatal(err)
	}
	huge := results[len(results)-1].Result
	if huge.Trials <= 0 || huge.Trials > hugeTrials {
		t.Errorf("huge cell took %d trials, want in (0, %d]", huge.Trials, hugeTrials)
	}
	if huge.Failures < target && huge.Trials < hugeTrials {
		t.Errorf("huge cell stopped at %d trials with only %d failures (target %d)",
			huge.Trials, huge.Failures, target)
	}
	// At d=5 and p=8e-3 (near threshold) the target is reached within a
	// small fraction of the cap; the early stop must have engaged.
	if huge.Trials == hugeTrials {
		t.Errorf("huge cell ran its whole %d-trial cap; early stop never engaged", hugeTrials)
	}
}

// Cancelling a sweep with a huge cell in flight aborts it at its next
// batch and never emits a partial cell: every emitted cell is complete,
// every skipped or aborted cell carries the context error, and the pool
// returns long before the huge cell's full budget could have run.
func TestCancelAbortsInFlightShards(t *testing.T) {
	const hugeTrials = 5_000_000 // far more work than the test allows time for
	huge := montecarlo.ThresholdCellConfig(extract.Baseline, 5, 8e-3, hardware.Default(),
		hugeTrials, 31, montecarlo.UF, montecarlo.SweepOptions{})
	jobs := ThresholdJobs(extract.Baseline, []int{3}, []float64{4e-3, 8e-3},
		hardware.Default(), 200, 31, montecarlo.UF, montecarlo.SweepOptions{})
	jobs = append(jobs, Job{Cfg: huge, Tag: ThresholdCell{Scheme: extract.Baseline, Distance: 5, Phys: 8e-3}})

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	emitted := map[int]montecarlo.Result{}
	s := New(montecarlo.NewEngine(), Options{Jobs: 4,
		OnResult: func(r CellResult) {
			mu.Lock()
			emitted[r.Index] = r.Result
			mu.Unlock()
		}})

	done := make(chan []CellResult, 1)
	go func() {
		results, _ := s.RunContext(ctx, jobs)
		done <- results
	}()
	time.Sleep(30 * time.Millisecond) // let the huge cell get in flight
	cancel()

	var results []CellResult
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pool did not return after cancellation; the in-flight cell was not aborted")
	}

	for i, r := range results {
		_, wasEmitted := emitted[i]
		switch {
		case r.Err == nil:
			if !wasEmitted {
				t.Errorf("cell %d completed but was not emitted", i)
			}
			if r.Result.Trials != r.Job.Cfg.Trials {
				t.Errorf("cell %d emitted a partial result: %d of %d trials",
					i, r.Result.Trials, r.Job.Cfg.Trials)
			}
		case errors.Is(r.Err, context.Canceled):
			if wasEmitted {
				t.Errorf("cell %d was skipped by cancellation but still emitted", i)
			}
		default:
			t.Errorf("cell %d: unexpected error %v", i, r.Err)
		}
	}
	hugeRes := results[len(results)-1]
	if hugeRes.Err == nil && hugeRes.Result.Trials != hugeTrials {
		t.Errorf("huge cell neither skipped nor complete: %+v", hugeRes.Result)
	}
}
