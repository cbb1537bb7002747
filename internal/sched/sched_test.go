package sched

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
)

func thresholdGrid(trials int) []Job {
	return ThresholdJobs(extract.Baseline, []int{3, 5}, []float64{4e-3, 8e-3, 1.6e-2},
		hardware.Default(), trials, 21, montecarlo.UF, montecarlo.SweepOptions{})
}

// Every cell is Engine.RunOn's, bit for bit, at every pool width (and
// therefore in every cell completion order): each cell runs as worker 0 of
// its own point, whichever workers decode its batches, so the stream it
// consumes is fixed by its Config alone. The grid mixes threshold and
// sensitivity cells.
func TestSchedulerDeterministicAcrossPoolWidths(t *testing.T) {
	mk := func() []Job {
		jobs := thresholdGrid(400)
		sens, err := SensitivityJobs(montecarlo.PanelCavityT1, []float64{1e-4, 1e-2}, []int{3},
			400, 7, montecarlo.UF, montecarlo.SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return append(jobs, sens...)
	}
	en := montecarlo.NewEngine()
	jobs := mk()
	want := make([]montecarlo.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = en.RunOn(j.Cfg, &montecarlo.WorkerState{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, width := range []int{1, 2, 7, 8} {
		results, err := New(montecarlo.NewEngine(), Options{Jobs: width}).Run(mk())
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, r := range results {
			if r.Result != want[i] {
				t.Errorf("width %d cell %d (%v):\n %+v\nRunOn:\n %+v", width, i, r.Job.Tag, r.Result, want[i])
			}
		}
	}
}

// A scheduled cell must be bit-identical to running its Config directly
// through RunOn: the pool is pure orchestration.
func TestSchedulerCellMatchesDirectRun(t *testing.T) {
	en := montecarlo.NewEngine()
	jobs := thresholdGrid(300)
	results, err := New(en, Options{Jobs: 3}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want, err := en.RunOn(jobs[i].Cfg, &montecarlo.WorkerState{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Result != want {
			t.Errorf("cell %d: scheduled\n %+v\ndirect\n %+v", i, r.Result, want)
		}
	}
}

// Run returns results in submission order with the jobs' tags intact, and
// OnResult fires exactly once per cell. The non-atomic counter inside the
// callback doubles as a serialization check under -race.
func TestSchedulerStreamsEveryCellOnce(t *testing.T) {
	jobs := thresholdGrid(150)
	seen := make([]int, len(jobs))
	calls := 0
	s := New(nil, Options{Jobs: 4, OnResult: func(r CellResult) {
		seen[r.Index]++
		calls++
	}})
	results, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Errorf("OnResult fired %d times for %d jobs", calls, len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("cell %d streamed %d times", i, n)
		}
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		cell := r.Job.Tag.(ThresholdCell)
		want := jobs[i].Tag.(ThresholdCell)
		if cell != want {
			t.Errorf("result %d tag %+v, want %+v", i, cell, want)
		}
	}
}

// The channel API must deliver every cell exactly once and close.
func TestSchedulerStreamChannel(t *testing.T) {
	jobs := thresholdGrid(150)
	seen := make([]int, len(jobs))
	for r := range New(nil, Options{Jobs: 2}).Stream(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		seen[r.Index]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("cell %d delivered %d times", i, n)
		}
	}
}

// A failing cell must not abort the sweep: the other cells still complete,
// and Run reports the first failure by submission order.
func TestSchedulerCellErrorDoesNotAbortSweep(t *testing.T) {
	jobs := thresholdGrid(150)
	bad := jobs[1]
	bad.Cfg.Trials = 0 // invalid
	jobs[1] = bad
	results, err := New(nil, Options{Jobs: 2}).Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("want error naming cell 1, got %v", err)
	}
	for i, r := range results {
		if i == 1 {
			if r.Err == nil {
				t.Error("cell 1 should carry its error")
			}
			continue
		}
		if r.Err != nil || r.Result.Trials == 0 {
			t.Errorf("cell %d did not complete: %+v err=%v", i, r.Result, r.Err)
		}
	}
}

// The scheduler's grid sweep must agree with running its cells one by one:
// same coordinates in grid order, and each point exactly RunOn's result
// for the cell's canonical Config.
func TestThresholdSweepMatchesSequential(t *testing.T) {
	ds := []int{3}
	ps := []float64{6e-3, 1.2e-2}
	const trials = 3000
	en := montecarlo.NewEngine()
	sch, err := New(en, Options{Jobs: 2}).ThresholdSweep(extract.Baseline, ds, ps, hardware.Default(), trials, 5, montecarlo.UF, montecarlo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sch) != len(ds)*len(ps) {
		t.Fatalf("%d scheduled points, want %d", len(sch), len(ds)*len(ps))
	}
	i := 0
	for _, d := range ds {
		for _, p := range ps {
			want, err := en.RunOn(montecarlo.ThresholdCellConfig(extract.Baseline, d, p, hardware.Default(), trials, 5, montecarlo.UF, montecarlo.SweepOptions{}), &montecarlo.WorkerState{})
			if err != nil {
				t.Fatal(err)
			}
			got := sch[i]
			if got.Distance != d || got.Phys != p {
				t.Fatalf("point %d: grid (%d, %g), want (%d, %g)", i, got.Distance, got.Phys, d, p)
			}
			if got.Result != want {
				t.Errorf("point %d: scheduled\n %+v\nsequential RunOn\n %+v", i, got.Result, want)
			}
			i++
		}
	}
}

// SensitivityJobs must expand a panel in grid order and run through the
// scheduler.
func TestSensitivitySweepGrid(t *testing.T) {
	pts, err := New(nil, Options{Jobs: 2}).SensitivitySweep(
		montecarlo.PanelCavityT1, []float64{1e-4, 1e-2}, []int{3}, 200, 1, montecarlo.UF, montecarlo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, v := range []float64{1e-4, 1e-2} {
		if pts[i].Value != v || pts[i].Distance != 3 || pts[i].Panel != montecarlo.PanelCavityT1 {
			t.Errorf("point %d: %+v", i, pts[i])
		}
		if pts[i].Result.Trials != 200 {
			t.Errorf("point %d: %d trials", i, pts[i].Result.Trials)
		}
	}
}

// The documented ordering guarantee on OnResult/Stream, pinned: arrival
// order may vary with the pool width, but result identity may not. Collect
// the stream at several widths, sort by Index, and require bit-identical
// per-cell statistics.
func TestStreamResultIdentityDeterministicAtAnyWidth(t *testing.T) {
	var ref []CellResult
	for _, width := range []int{1, 3, 8} {
		var got []CellResult
		for r := range New(montecarlo.NewEngine(), Options{Jobs: width}).Stream(thresholdGrid(300)) {
			if r.Err != nil {
				t.Fatalf("width %d: cell %d: %v", width, r.Index, r.Err)
			}
			got = append(got, r)
		}
		slices.SortFunc(got, func(a, b CellResult) int { return a.Index - b.Index })
		for i, r := range got {
			if r.Index != i {
				t.Fatalf("width %d: missing or duplicated cell %d", width, i)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			a, b := got[i].Result, ref[i].Result
			if a.Failures != b.Failures || a.Trials != b.Trials {
				t.Errorf("width %d cell %d: %d/%d failures/trials, want %d/%d (width 1)",
					width, i, a.Failures, a.Trials, b.Failures, b.Trials)
			}
		}
	}
}

// Cancelling mid-sweep stops the pool at the next cell boundary: cells
// that never started carry the context error and are not emitted, while
// every emitted cell genuinely ran. Width 1 makes the split deterministic:
// cancel during the first cell's emission (the most expensive cell under
// the default cost order) and every other cell must be skipped.
func TestRunContextCancelSkipsRemainingCells(t *testing.T) {
	jobs := thresholdGrid(150)
	ctx, cancel := context.WithCancel(context.Background())
	var emitted []int
	s := New(nil, Options{Jobs: 1, OnResult: func(r CellResult) {
		emitted = append(emitted, r.Index)
		cancel()
	}})
	results, err := s.RunContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if len(emitted) != 1 {
		t.Fatalf("emitted cells %v, want exactly one", emitted)
	}
	first := emitted[0]
	if results[first].Err != nil || results[first].Result.Trials == 0 {
		t.Errorf("cell %d should have completed: %+v", first, results[first])
	}
	for i := range results {
		if i == first {
			continue
		}
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("cell %d err = %v, want context.Canceled", i, results[i].Err)
		}
		if results[i].Result.Trials != 0 {
			t.Errorf("cell %d ran %d trials after cancel", i, results[i].Result.Trials)
		}
	}
}

// StreamContext closes its channel after cancellation without delivering
// the skipped cells.
func TestStreamContextCancelClosesChannel(t *testing.T) {
	jobs := thresholdGrid(150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any cell starts
	n := 0
	for range New(nil, Options{Jobs: 2}).StreamContext(ctx, jobs) {
		n++
	}
	if n != 0 {
		t.Errorf("pre-cancelled stream delivered %d cells, want 0", n)
	}
}

// The queue order is a wall-clock knob only: OrderFIFO and the default
// OrderCost produce bit-identical per-cell results.
func TestQueueOrderDoesNotChangeResults(t *testing.T) {
	en := montecarlo.NewEngine()
	cost, err := New(en, Options{Jobs: 4}).Run(thresholdGrid(300))
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := New(en, Options{Jobs: 4, Queue: OrderFIFO}).Run(thresholdGrid(300))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cost {
		a, b := cost[i].Result, fifo[i].Result
		if a.Failures != b.Failures || a.Trials != b.Trials {
			t.Errorf("cell %d: cost-ordered %d/%d vs FIFO %d/%d failures/trials",
				i, a.Failures, a.Trials, b.Failures, b.Trials)
		}
	}
}

// CellCost must order a mixed grid longest-first: higher distance, more
// rounds, or more trials all rank ahead; the estimate is pure and cheap.
func TestCellCostOrdering(t *testing.T) {
	base := montecarlo.Config{Distance: 5, Trials: 1000}
	bigger := []montecarlo.Config{
		{Distance: 7, Trials: 1000},             // more detectors and rounds
		{Distance: 5, Trials: 2000},             // more trials
		{Distance: 5, Rounds: 15, Trials: 1000}, // more rounds
	}
	for _, cfg := range bigger {
		if CellCost(cfg) <= CellCost(base) {
			t.Errorf("CellCost(%+v) = %g not above CellCost(%+v) = %g",
				cfg, CellCost(cfg), base, CellCost(base))
		}
	}
	if CellCost(base) != CellCost(base) || CellCost(base) <= 0 {
		t.Errorf("CellCost not a positive pure function: %g", CellCost(base))
	}
}

// Two sweeps sharing one engine may run concurrently — the -race CI job
// exercises the engine's cache and the hoisted graph build under real
// contention here.
func TestSchedulersShareEngineConcurrently(t *testing.T) {
	en := montecarlo.NewEngine()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = New(en, Options{Jobs: 2}).Run(thresholdGrid(150))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("sweep %d: %v", i, err)
		}
	}
	if en.StructureBuilds() != 2 {
		t.Errorf("concurrent sweeps built %d structures, want 2 (one per distance)", en.StructureBuilds())
	}
}
