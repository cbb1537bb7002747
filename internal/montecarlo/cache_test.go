package montecarlo

import (
	"sync"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

func pointCfg(d int, seed int64) Config {
	return Config{
		Scheme:   extract.Baseline,
		Distance: d,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(5e-3),
		Trials:   150,
		Seed:     seed,
	}
}

// A cap-1 cache must evict the LRU structure and rebuild on return visits,
// while never holding more than one entry.
func TestCacheLRUEviction(t *testing.T) {
	en := NewEngineWithCache(1)
	for i, d := range []int{3, 5, 3} {
		if _, err := en.RunOn(pointCfg(d, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
		if got := en.CacheStats().Entries; got != 1 {
			t.Fatalf("after run %d: %d cached structures, cap 1", i, got)
		}
	}
	st := en.CacheStats()
	if st.Builds != 3 {
		t.Errorf("3-2-3 distance sequence under cap 1 built %d structures, want 3 (d=3 evicted and rebuilt)", st.Builds)
	}
	if st.Evictions != 2 {
		t.Errorf("recorded %d evictions, want 2", st.Evictions)
	}
}

// Touching an entry must refresh its recency: with cap 2, re-running d=3
// before introducing d=7 must evict d=5, not d=3.
func TestCacheLRUTouchRefreshesRecency(t *testing.T) {
	en := NewEngineWithCache(2)
	for i, d := range []int{3, 5, 3, 7, 3} {
		if _, err := en.RunOn(pointCfg(d, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Builds: d3, d5, (d3 hit), d7 evicting d5, (d3 hit) => 3.
	st := en.CacheStats()
	if st.Builds != 3 {
		t.Errorf("built %d structures, want 3 (d=3 must survive as recently used)", st.Builds)
	}
	if st.Evictions != 1 {
		t.Errorf("recorded %d evictions, want 1", st.Evictions)
	}
}

// maxEntries <= 0 disables eviction entirely.
func TestCacheUnbounded(t *testing.T) {
	en := NewEngineWithCache(0)
	for i, d := range []int{3, 5, 7} {
		if _, err := en.RunOn(pointCfg(d, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := en.CacheStats()
	if st.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d entries", st.Evictions)
	}
	if st.Entries != 3 {
		t.Errorf("%d cached structures, want 3", st.Entries)
	}
}

// Eviction must not change results: an evicted-and-rebuilt structure yields
// the same deterministic outcome as the original.
func TestEvictionPreservesDeterminism(t *testing.T) {
	cfg := pointCfg(3, 99)
	en := NewEngineWithCache(1)
	a, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.RunOn(pointCfg(5, 1), nil); err != nil { // evicts d=3
		t.Fatal(err)
	}
	b, err := en.RunOn(cfg, nil) // rebuild
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.Trials != b.Trials {
		t.Errorf("results changed across eviction: %d/%d vs %d/%d failures/trials",
			a.Failures, a.Trials, b.Failures, b.Trials)
	}
}

// The engine must tolerate concurrent RunOn callers hammering a tiny
// cache — the -race CI job drives the LRU bookkeeping, the build once, and
// the hoisted graph once under contention here.
func TestEngineConcurrentUse(t *testing.T) {
	en := NewEngineWithCache(2)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := 3
			if i%2 == 1 {
				d = 5
			}
			_, errs[i] = en.RunOn(pointCfg(d, int64(i)), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// Reusing one WorkerState across different distances must not change
// results: RunOn on a reused state equals RunOn on a fresh one.
func TestRunOnWorkerStateReuse(t *testing.T) {
	en := NewEngine()
	var st WorkerState
	for _, d := range []int{3, 5, 3} {
		cfg := pointCfg(d, 7)
		cfg.Trials = 500
		got, err := en.RunOn(cfg, &st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := en.RunOn(cfg, &WorkerState{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("d=%d: RunOn on a reused state\n %+v\non a fresh one\n %+v", d, got, want)
		}
	}
}
