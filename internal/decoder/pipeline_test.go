package decoder

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
)

// pipelineBatches builds a duplicate- and zero-heavy batch sequence from the
// model's sampler: each batch mixes fresh sampled shots, explicit empty
// shots, and replays of earlier shots in the same batch.
func pipelineBatch(b *Batch, sample func() []int, rng *rand.Rand, n int) {
	b.Reset()
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 3:
			b.Add(nil) // forced zero-defect shot
		case i > 0 && i%5 == 4:
			b.Add(b.Shot(rng.IntN(i))) // forced duplicate of an earlier shot
		default:
			b.Add(sample())
		}
	}
}

// The tentpole contract: pipeline on vs off is bit-identical per shot, for
// both production decoders, on both a sampled circuit-level batch stream and the
// synthetic cyclic graph.
func TestPipelineMatchesInnerPerShot(t *testing.T) {
	m, g := circuitGraph(t, extract.CompactInterleaved, 3, 4e-3)
	s := m.NewSampler()
	rng := rand.New(rand.NewPCG(11, 23))
	sample := func() []int {
		ev, _ := s.Sample(rng)
		return ev
	}
	for _, build := range []func(*dem.Graph) BatchDecoder{
		func(g *dem.Graph) BatchDecoder { return NewUnionFind(g) },
		func(g *dem.Graph) BatchDecoder { return NewBlossom(g) },
	} {
		direct := build(g)
		kind := direct.Name()
		pipe := NewPipeline(build(g))
		var b Batch
		want := make([]bool, 64)
		got := make([]bool, 64)
		for trial := 0; trial < 8; trial++ {
			pipelineBatch(&b, sample, rng, 64)
			if err := direct.DecodeBatch(&b, want); err != nil {
				t.Fatalf("%s direct: %v", kind, err)
			}
			if err := pipe.DecodeBatch(&b, got); err != nil {
				t.Fatalf("%s pipeline: %v", kind, err)
			}
			for i := 0; i < b.Len(); i++ {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d shot %d (events %v): pipeline %v vs direct %v",
						kind, trial, i, b.Shot(i), got[i], want[i])
				}
			}
		}
		st := pipe.Stats()
		if st.Shots != st.Skipped+st.DedupHits+st.Decoded {
			t.Fatalf("%s: counters don't partition: %+v", kind, st)
		}
		if st.Skipped == 0 || st.DedupHits == 0 {
			t.Fatalf("%s: forced zero/duplicate shots not counted: %+v", kind, st)
		}
	}
}

// Same contract on the cyclic fuzz graph with dense random syndromes, where
// blossom formation and multi-component splits are exercised.
func TestPipelineMatchesInnerCyclic(t *testing.T) {
	g := cyclicGraph(12, 5)
	rng := rand.New(rand.NewPCG(3, 9))
	sample := func() []int {
		word := rng.Uint64() & 0xfff
		var ev []int
		for i := 0; i < 12; i++ {
			if word&(1<<i) != 0 {
				ev = append(ev, i)
			}
		}
		return ev
	}
	direct := NewBlossom(g)
	pipe := NewPipeline(NewBlossom(g))
	var b Batch
	want := make([]bool, 64)
	got := make([]bool, 64)
	for trial := 0; trial < 6; trial++ {
		pipelineBatch(&b, sample, rng, 64)
		if err := direct.DecodeBatch(&b, want); err != nil {
			t.Fatal(err)
		}
		if err := pipe.DecodeBatch(&b, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d shot %d (events %v): pipeline %v vs direct %v",
					trial, i, b.Shot(i), got[i], want[i])
			}
		}
	}
}

// A crafted batch pins the counter semantics exactly: empty shots are
// skipped, first occurrences decoded, repeats replayed.
func TestPipelineCounters(t *testing.T) {
	g := lineGraph(7, 1e-3)
	pipe := NewPipeline(NewUnionFind(g))
	var b Batch
	b.Add(nil)         // skip
	b.Add([]int{6})    // decode (flips: nearest boundary is the logical one)
	b.Add([]int{6})    // dedup
	b.Add(nil)         // skip
	b.Add([]int{3, 4}) // decode
	b.Add([]int{6})    // dedup
	out := make([]bool, b.Len())
	if err := pipe.DecodeBatch(&b, out); err != nil {
		t.Fatal(err)
	}
	st := pipe.Stats()
	if st.Shots != 6 || st.Skipped != 2 || st.DedupHits != 2 || st.Decoded != 2 {
		t.Fatalf("counters %+v, want 6/2/2/2", st)
	}
	if out[0] || out[3] {
		t.Fatal("zero-defect shots must predict no flip")
	}
	if !out[1] || !out[2] || !out[5] {
		t.Fatal("event at 6 must flip, and its duplicates must replay the same prediction")
	}
	if out[4] {
		t.Fatal("adjacent pair must not flip")
	}

	// Scalar path: skip counts, no dedup.
	if obs, err := pipe.Decode(nil); err != nil || obs {
		t.Fatalf("scalar empty decode gave (%v, %v)", obs, err)
	}
	if obs, err := pipe.Decode([]int{6}); err != nil || !obs {
		t.Fatalf("scalar decode gave (%v, %v)", obs, err)
	}
	st = pipe.Stats()
	if st.Shots != 8 || st.Skipped != 3 || st.Decoded != 3 {
		t.Fatalf("scalar counters %+v", st)
	}
}

// Batches larger than the initial table must trigger growth, and the
// epoch-stamped table must stay correct across many batches without any
// explicit clearing.
func TestPipelineTableGrowthAndEpochReuse(t *testing.T) {
	g := cyclicGraph(12, 5)
	direct := NewBlossom(g)
	pipe := NewPipeline(NewBlossom(g))
	rng := rand.New(rand.NewPCG(77, 1))
	var b Batch
	for trial := 0; trial < 40; trial++ {
		b.Reset()
		n := 40 + rng.IntN(60) // often > 64-entry initial table at 1/2 load
		for i := 0; i < n; i++ {
			word := rng.Uint64() & 0xfff
			var ev []int
			for j := 0; j < 12; j++ {
				if word&(1<<j) != 0 {
					ev = append(ev, j)
				}
			}
			b.Add(ev)
		}
		want := make([]bool, n)
		got := make([]bool, n)
		if err := direct.DecodeBatch(&b, want); err != nil {
			t.Fatal(err)
		}
		if err := pipe.DecodeBatch(&b, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d shot %d: pipeline %v vs direct %v", trial, i, got[i], want[i])
			}
		}
	}
	if ts := pipe.tableSize(); ts < 128 || ts&(ts-1) != 0 {
		t.Fatalf("table size %d: want power of two >= 128 after 100-shot batches", ts)
	}
}

// Rebind swaps the inner decoder (the per-worker cross-cell reuse hook)
// while stats keep accumulating and the name tracks the new inner.
func TestPipelineRebind(t *testing.T) {
	g1 := lineGraph(5, 1e-3)
	g2 := cyclicGraph(12, 5)
	pipe := NewPipeline(NewUnionFind(g1))
	if _, err := pipe.Decode([]int{2}); err != nil {
		t.Fatal(err)
	}
	before := pipe.Stats()
	pipe.Rebind(NewBlossom(g2))
	if !strings.Contains(pipe.Name(), NewBlossom(g2).Name()) {
		t.Fatalf("name %q does not track rebound inner", pipe.Name())
	}
	if pipe.Inner().Name() != NewBlossom(g2).Name() {
		t.Fatalf("Inner() is %q after rebind", pipe.Inner().Name())
	}
	if _, err := pipe.Decode([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	after := pipe.Stats()
	if after.Shots != before.Shots+1 || after.Decoded != before.Decoded+1 {
		t.Fatalf("stats reset across rebind: %+v then %+v", before, after)
	}
}

func TestPipelineOutTooSmall(t *testing.T) {
	pipe := NewPipeline(NewUnionFind(lineGraph(5, 1e-3)))
	var b Batch
	b.Add([]int{1})
	b.Add([]int{2})
	if err := pipe.DecodeBatch(&b, make([]bool, 1)); err == nil {
		t.Fatal("undersized out buffer must error")
	}
}
