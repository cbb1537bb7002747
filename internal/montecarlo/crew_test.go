package montecarlo

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// startHelpers runs n crew members, each decoding on its own WorkerState,
// and returns a function that closes the crew and waits for them. It
// reports how many batches they decoded through *helped.
func startHelpers(c *Crew, n int, helped *int) (stop func()) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st WorkerState
			for s := c.Claim(); s != nil; s = c.Claim() {
				c.Finish(s, st.DecodeSlot(s))
				mu.Lock()
				*helped++
				mu.Unlock()
			}
		}()
	}
	return func() {
		c.Close()
		wg.Wait()
	}
}

// A RunOn whose WorkerState has joined a crew with an idle member is
// helped, and its Counts equal the solo RunOn's. Its steady state
// allocates nothing per batch: a point of 64 batches allocates at most 8
// more times than a point of one, where a channel or task per batch would
// add 64. (Some allocations remain while the slots' and decoders' buffers
// grow to the largest batch each has seen.)
func TestCrewHelpedRunOnIsBitIdenticalAndAllocationFree(t *testing.T) {
	const batches = 64
	cfg := Config{
		Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(8e-3), Trials: 64 * batches, Seed: 3,
	}
	en := NewEngine()
	solo, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	crew := NewCrew()
	helped := 0
	stop := startHelpers(crew, 1, &helped)
	var st WorkerState
	st.JoinCrew(crew)
	got, err := en.RunOn(cfg, &st)
	if err != nil {
		t.Fatal(err)
	}
	for range 20 { // let the buffers grow
		if _, err := en.RunOn(cfg, &st); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(trials int) float64 {
		c := cfg
		c.Trials = trials
		return testing.AllocsPerRun(5, func() {
			if _, err := en.RunOn(c, &st); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(64), allocs(64*batches)
	stop()

	if helped == 0 {
		t.Fatal("no batch was decoded by the crew member")
	}
	if got.Counts != solo.Counts {
		t.Errorf("helped RunOn counts\n %+v\nsolo\n %+v", got.Counts, solo.Counts)
	}
	if many > one+batches/8 {
		t.Errorf("RunOn allocates %.0f times for %d batches but %.0f for one: the batch loop allocates", many, batches, one)
	}
}

// An owner reweighs every cell into the same Graph, so a helper bound to
// the owner's last cell must rebind for the next one although the graph
// pointer did not change. An owner and one helper run consecutive cells of
// one topology at two noise scales, and every result must equal a fresh
// RunOn's. Whether the helper claims a batch of a given run is up to the
// scheduler, so each cell is rerun until the helper has decoded one of its
// batches: the next cell then starts with the helper bound to this one.
func TestCrewHelperRebindsAcrossReweightedCells(t *testing.T) {
	const maxRuns = 200
	rates := []float64{5e-3, 1.2e-2, 5e-3, 1.2e-2}
	en := NewEngine()
	crew := NewCrew()
	var helped atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var st WorkerState
		for s := crew.Claim(); s != nil; s = crew.Claim() {
			err := st.DecodeSlot(s)
			helped.Add(1) // before Finish, so the owner's RunOn returns after it
			crew.Finish(s, err)
		}
	}()
	defer func() {
		crew.Close()
		wg.Wait()
	}()
	var st WorkerState
	st.JoinCrew(crew)
	for i, p := range rates {
		cfg := Config{
			Scheme: extract.CompactInterleaved, Distance: 7, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(p), Trials: 64 * 24, Seed: 11,
		}
		want, err := en.RunOn(cfg, &WorkerState{})
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; ; run++ {
			before := helped.Load()
			got, err := en.RunOn(cfg, &st)
			if err != nil {
				t.Fatal(err)
			}
			if got.Counts != want.Counts {
				t.Fatalf("cell %d (p=%g), run %d: helped RunOn counts\n %+v\nfresh RunOn\n %+v", i, p, run, got.Counts, want.Counts)
			}
			if helped.Load() > before {
				break
			}
			if run == maxRuns {
				t.Fatalf("cell %d (p=%g): the helper decoded no batch in %d runs", i, p, maxRuns)
			}
		}
	}
}
