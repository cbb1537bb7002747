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

// skewedPair is a big cell plus a small one with 1/ratio of its trials (and
// its own seed), at distance d and physical rate p. At width 2 the small
// cell's worker finishes early and then helps decode the big cell.
func skewedPair(d int, p float64, trials, ratio int, dec montecarlo.DecoderKind, opts montecarlo.SweepOptions) []Job {
	big := montecarlo.ThresholdCellConfig(extract.Baseline, d, p, hardware.Default(), trials, 71, dec, opts)
	small := montecarlo.ThresholdCellConfig(extract.Baseline, d, p, hardware.Default(), trials/ratio, 72, dec, opts)
	return []Job{{Cfg: big}, {Cfg: small}}
}

// untilHelped repeats a width-2 run until a helper decoded at least one of
// its batches, and returns that run's results. On a loaded host one worker
// can lag so far behind the other that it never goes idle while batches
// remain, so a run is retried a few times before failing.
func untilHelped(t *testing.T, run func() (*Scheduler, []CellResult)) []CellResult {
	t.Helper()
	for range 5 {
		if s, res := run(); s.helped.Load() > 0 {
			return res
		}
	}
	t.Fatal("no batch was decoded by a helper in 5 runs")
	return nil
}

// waitRun runs fn on its own goroutine and fails the test if the pool does
// not return within a minute.
func waitRun(t *testing.T, fn func() []CellResult) []CellResult {
	t.Helper()
	done := make(chan []CellResult, 1)
	go func() { done <- fn() }()
	select {
	case res := <-done:
		return res
	case <-time.After(time.Minute):
		t.Fatal("pool did not return")
		return nil
	}
}

// The helping contract: a cell whose batches idle workers decoded carries
// exactly Engine.RunOn's Result, in every counter — failures, skips, dedup hits,
// fallbacks, decoder stage stats, the weighted tally — and in where early
// stop lands. Each case forces helping with a big cell at 8x or more the
// trials of a small one at width 2, and asserts helping happened.
func TestHelpingIsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		jobs []Job
	}{
		{"uf", skewedPair(5, 8e-3, 4096, 8, montecarlo.UF, montecarlo.SweepOptions{})},
		{"blossom", skewedPair(5, 8e-3, 4096, 8, montecarlo.Blossom, montecarlo.SweepOptions{})},
		{"no-pipeline", skewedPair(5, 8e-3, 4096, 8, montecarlo.UF, montecarlo.SweepOptions{DisablePipeline: true})},
		{"mwpm", skewedPair(5, 1.2e-2, 512, 8, montecarlo.MWPM, montecarlo.SweepOptions{})},
		// The early stops land at about 70% of the big cell's cap; the small
		// cell runs its whole budget.
		{"target-failures", skewedPair(5, 1.2e-2, 8192, 8, montecarlo.UF, montecarlo.SweepOptions{TargetFailures: 750})},
		{"rare-target-relerr", skewedPair(5, 2e-3, 8192, 8, montecarlo.UF,
			montecarlo.SweepOptions{RareEvent: true, Boost: 2, TargetRelErr: 0.11})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			en := montecarlo.NewEngine()
			got := untilHelped(t, func() (*Scheduler, []CellResult) {
				s := New(en, Options{Jobs: 2})
				res, err := s.Run(tc.jobs)
				if err != nil {
					t.Fatal(err)
				}
				return s, res
			})
			want := make([]montecarlo.Result, len(tc.jobs))
			for i, j := range tc.jobs {
				var err error
				if want[i], err = en.RunOn(j.Cfg, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i, r := range got {
				if r.Result.Counts != want[i].Counts ||
					r.Result.Mechanisms != want[i].Mechanisms || r.Result.DetectorCount != want[i].DetectorCount {
					t.Errorf("cell %d helped:\n %+v\nwidth 1:\n %+v", i, r.Result.Counts, want[i].Counts)
				}
			}
			cfg, big := tc.jobs[0].Cfg, want[0]
			switch {
			case cfg.DisablePipeline && big.Skipped != 0:
				t.Errorf("pipeline off but %d shots skipped", big.Skipped)
			case !cfg.DisablePipeline && big.Skipped == 0:
				t.Error("pipeline on but no shot skipped")
			case cfg.Decoder == montecarlo.MWPM && big.Fallbacks == 0:
				t.Error("mwpm case never fell back; it does not exercise the Fallbacks delta")
			case (cfg.TargetFailures > 0 || cfg.TargetRelErr > 0) && big.Trials == cfg.Trials:
				t.Errorf("early stop never engaged in %d trials", big.Trials)
			}
		})
	}
}

// Batches too light to repay a handoff are never lent: a d=3 pair at
// p = 1e-3 carries about 23 fired detectors per batch, so at width 2 the
// idle worker decodes nothing, and the cells are still RunOn's.
func TestHelpingSkipsLightBatches(t *testing.T) {
	jobs := skewedPair(3, 1e-3, 8192, 8, montecarlo.UF, montecarlo.SweepOptions{})
	en := montecarlo.NewEngine()
	s := New(en, Options{Jobs: 2})
	got, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.helped.Load(); n != 0 {
		t.Errorf("%d light batches were lent to a helper", n)
	}
	for i, j := range jobs {
		want, err := en.RunOn(j.Cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Result.Counts != want.Counts {
			t.Errorf("cell %d: %+v, RunOn %+v", i, got[i].Result.Counts, want.Counts)
		}
	}
}

// A decode error raised on a helper becomes the helped cell's Err, the
// other cell is unaffected, and the pool returns.
func TestHelpingErrorBecomesCellErr(t *testing.T) {
	injected := errors.New("injected helper decode failure")
	decodeSlot = func(*montecarlo.WorkerState, *montecarlo.Slot) error { return injected }
	t.Cleanup(func() { decodeSlot = (*montecarlo.WorkerState).DecodeSlot })

	jobs := skewedPair(5, 8e-3, 4096, 8, montecarlo.UF, montecarlo.SweepOptions{})
	results := untilHelped(t, func() (*Scheduler, []CellResult) {
		s := New(montecarlo.NewEngine(), Options{Jobs: 2})
		return s, waitRun(t, func() []CellResult {
			res, _ := s.Run(jobs)
			return res
		})
	})
	if !errors.Is(results[0].Err, injected) {
		t.Errorf("helped cell err = %v, want the injected error", results[0].Err)
	}
	if results[1].Err != nil || results[1].Result.Trials != jobs[1].Cfg.Trials {
		t.Errorf("small cell: err %v, %d trials", results[1].Err, results[1].Result.Trials)
	}
}

// Cancelling a run while a helper holds one of a cell's batches still
// returns and emits no partial cell. The cancel fires inside a helper's
// decode, so the helped cell is in flight when it lands: that cell aborts
// at its next batch and is dropped with the context error, like every
// cell the cancellation catches unfinished.
func TestHelpingCancelReturns(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		t.Cleanup(func() { decodeSlot = (*montecarlo.WorkerState).DecodeSlot })
		jobs := skewedPair(5, 8e-3, 4096, 8, montecarlo.UF, montecarlo.SweepOptions{})
		en := montecarlo.NewEngine()
		var mu sync.Mutex
		var emitted map[int]montecarlo.Result
		results := untilHelped(t, func() (*Scheduler, []CellResult) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			decodeSlot = func(st *montecarlo.WorkerState, sl *montecarlo.Slot) error {
				// Hold the slot until the cancellation has reached the
				// cells, so it lands mid-cell even on the last batch.
				once.Do(func() {
					cancel()
					time.Sleep(20 * time.Millisecond)
				})
				return st.DecodeSlot(sl)
			}
			emitted = map[int]montecarlo.Result{}
			s := New(en, Options{Jobs: 2, OnResult: func(r CellResult) {
				mu.Lock()
				emitted[r.Index] = r.Result
				mu.Unlock()
			}})
			return s, waitRun(t, func() []CellResult {
				res, _ := s.RunContext(ctx, jobs)
				return res
			})
		})
		for i, r := range results {
			res, ok := emitted[i]
			switch {
			case r.Err == nil:
				if !ok || res.Trials != jobs[i].Cfg.Trials {
					t.Errorf("cell %d completed but emitted=%v with %d trials", i, ok, res.Trials)
				}
			case errors.Is(r.Err, context.Canceled):
				if ok {
					t.Errorf("cell %d was cancelled but emitted", i)
				}
				if r.Result.Trials != 0 {
					t.Errorf("cell %d was cancelled but kept %d trials", i, r.Result.Trials)
				}
			default:
				t.Errorf("cell %d: unexpected error %v", i, r.Err)
			}
		}
		// The small cell finishes first and its worker helps the big one,
		// so the big cell is the one in flight when the cancel lands.
		if big := results[0]; !errors.Is(big.Err, context.Canceled) {
			t.Errorf("helped in-flight cell err = %v (%d trials), want context.Canceled", big.Err, big.Result.Trials)
		}
	})
}

// BenchmarkSkewedPairHelping runs two cells at a 1:4 cost ratio on a 2-wide
// pool. Without helping the makespan is the big cell's run time, with the
// small cell's worker idle for three quarters of it; with helping it
// approaches their mean. It reports the makespan and the fraction of all
// batches that a helper decoded.
func BenchmarkSkewedPairHelping(b *testing.B) {
	jobs := skewedPair(5, 8e-3, 16384, 4, montecarlo.UF, montecarlo.SweepOptions{})
	batches := 0
	for _, j := range jobs {
		batches += (j.Cfg.Trials + 63) / 64
	}
	s := New(montecarlo.NewEngine(), Options{Jobs: 2})
	if _, err := s.Run(jobs); err != nil { // warm the structure cache
		b.Fatal(err)
	}
	helped0 := s.helped.Load()
	for b.Loop() {
		if _, err := s.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "makespan_ms")
	b.ReportMetric(float64(s.helped.Load()-helped0)/float64(batches*b.N), "helped_frac")
}
