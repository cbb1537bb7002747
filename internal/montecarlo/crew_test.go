package montecarlo

import (
	"sync"
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
