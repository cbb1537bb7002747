package decoder

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dem"
	"repro/internal/extract"
)

// Property: decoder output is invariant under permutation of the event list
// (events are a set, not a sequence).
func TestEventOrderInvariance(t *testing.T) {
	_, g := circuitGraph(t, extract.Baseline, 3, 5e-3)
	uf := NewUnionFind(g)
	bl := NewBlossom(g)
	rng := rand.New(rand.NewPCG(97, 0))

	f := func(seed int64) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 0))
		n := 2 + r.IntN(6)
		events := map[int]bool{}
		for len(events) < n {
			events[r.IntN(g.NumNodes)] = true
		}
		var sorted []int
		for e := range events {
			sorted = append(sorted, e)
		}
		// Two random permutations.
		a := append([]int(nil), sorted...)
		b := append([]int(nil), sorted...)
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		ra, err1 := uf.Decode(a)
		rb, err2 := uf.Decode(b)
		if err1 != nil || err2 != nil || ra != rb {
			return false
		}
		ma, err3 := bl.Decode(a)
		mb, err4 := bl.Decode(b)
		return err3 == nil && err4 == nil && ma == mb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	t.Run("dense union-find", eventOrderDenseUnionFind)
}

// The same property on dense circuit-level shots, where union-find grows
// many interacting clusters for dozens of rounds and the event order used
// to decide which cluster walked first (Baseline d=9 at p=0.03, ~100
// events per shot). Each shot is decoded ascending, shuffled and reversed.
func eventOrderDenseUnionFind(t *testing.T) {
	m, g := circuitGraph(t, extract.Baseline, 9, 3e-2)
	uf := NewUnionFind(g)
	shots := nonEmptyShots(m, 320, 9)
	rng := rand.New(rand.NewPCG(29, 3))
	for i, ev := range shots {
		want, err := uf.Decode(ev)
		if err != nil {
			t.Fatalf("shot %d: %v", i, err)
		}
		perm := append([]int(nil), ev...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		rev := append([]int(nil), ev...)
		slices.Reverse(rev)
		for _, order := range []struct {
			name string
			ev   []int
		}{{"shuffled", perm}, {"reversed", rev}} {
			got, err := uf.Decode(order.ev)
			if err != nil {
				t.Fatalf("shot %d %s: %v", i, order.name, err)
			}
			if got != want {
				t.Errorf("shot %d (%d events): %s order predicts %v, ascending %v", i, len(ev), order.name, got, want)
			}
		}
	}
}

// Parity property: the UF decoder must succeed for any even-sized event set
// and for odd-sized sets when boundary edges exist.
func TestUFAlwaysTerminates(t *testing.T) {
	g := lineGraph(12, 1e-2)
	uf := NewUnionFind(g)
	rng := rand.New(rand.NewPCG(3, 0))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(8)
		seen := map[int]bool{}
		var events []int
		for len(events) < n {
			e := rng.IntN(12)
			if !seen[e] {
				seen[e] = true
				events = append(events, e)
			}
		}
		if _, err := uf.Decode(events); err != nil {
			t.Fatalf("trial %d (%v): %v", trial, events, err)
		}
	}
}

// Property: the blossom radius certificate makes corrections independent of
// the growth schedule — a decoder whose initial radii are warm-started from
// the landmark nearest-event estimates must produce byte-identical
// predictions (and matching weights) to one pinned at the cold r0 schedule,
// across scheme x distance x noise scale on circuit-level graphs.
func TestBlossomWarmStartMatchesColdStart(t *testing.T) {
	cases := []struct {
		scheme extract.Scheme
		d      int
		phys   float64
		shots  int
	}{
		{extract.Baseline, 3, 2e-3, 400},
		{extract.Baseline, 5, 4e-3, 300},
		{extract.Baseline, 7, 4e-3, 200},
		{extract.CompactInterleaved, 3, 8e-3, 400},
		{extract.CompactInterleaved, 5, 2e-3, 300},
		{extract.CompactInterleaved, 7, 4e-3, 200},
	}
	for _, tc := range cases {
		m, g := circuitGraph(t, tc.scheme, tc.d, tc.phys)
		warm := NewBlossom(g)
		warm.warmStart = true
		cold := NewBlossom(g) // default: the cold r0 schedule
		s := m.NewSampler()
		rng := rand.New(rand.NewPCG(uint64(tc.d)*131+uint64(tc.phys*1e7), 41))
		for shot := 0; shot < tc.shots; shot++ {
			ev, _ := s.Sample(rng)
			wObs, wW, err1 := warm.DecodeWithWeight(ev)
			cObs, cW, err2 := cold.DecodeWithWeight(ev)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v d=%d p=%g shot %d: warm err %v, cold err %v",
					tc.scheme, tc.d, tc.phys, shot, err1, err2)
			}
			if wObs != cObs {
				t.Fatalf("%v d=%d p=%g shot %d (events %v): warm predicts %v, cold %v",
					tc.scheme, tc.d, tc.phys, shot, ev, wObs, cObs)
			}
			if math.Abs(wW-cW) > weightTol(cW) {
				t.Fatalf("%v d=%d p=%g shot %d (events %v): warm weight %g vs cold %g",
					tc.scheme, tc.d, tc.phys, shot, ev, wW, cW)
			}
		}
	}
}

// Larger clustered syndromes: Blossom's component split must match each
// well-separated cluster on its own.
func TestBlossomLargeSeparatedClusters(t *testing.T) {
	g := lineGraph(60, 1e-3)
	bl := NewBlossom(g)
	// Three well-separated adjacent pairs plus a far singleton: 7 events,
	// each cluster tiny.
	events := []int{5, 6, 25, 26, 45, 46, 58}
	obs, err := bl.Decode(events)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs match internally (no flips); the singleton at 58 exits through
	// the right boundary, which carries the logical mask.
	if !obs {
		t.Error("expected the right-boundary match to flip the observable")
	}
	// A version with the singleton near the left boundary must not flip.
	obs, err = bl.Decode([]int{1, 25, 26, 45, 46, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if obs {
		t.Error("left-boundary singleton must not flip the observable")
	}
}

// Weighted-edge behavior: shrinking one edge's probability reroutes the
// matching around it.
func TestWeightSensitivity(t *testing.T) {
	// Path of 4 detectors; make the middle edge very unlikely so two
	// middle events prefer boundary exits... build two graphs and compare.
	cheap := func(midP float64) *dem.Graph {
		m := &dem.Model{NumDets: 4}
		add := func(dets []int32, obs bool, p float64) {
			m.Mechs = append(m.Mechs, dem.Mechanism{Dets: dets, Obs: obs, P: p})
		}
		add([]int32{0}, false, 0.1)
		add([]int32{0, 1}, false, 0.1)
		add([]int32{1, 2}, false, midP)
		add([]int32{2, 3}, false, 0.1)
		add([]int32{3}, true, 0.1)
		g, err := m.DecodingGraph()
		if err != nil {
			panic(err)
		}
		return g
	}
	// Likely middle edge: events {1,2} match directly, no flip.
	bl := NewBlossom(cheap(0.3))
	obs, err := bl.Decode([]int{1, 2})
	if err != nil || obs {
		t.Fatalf("likely middle edge: got (%v,%v)", obs, err)
	}
	// Very unlikely middle edge: cheaper to exit both boundaries; the right
	// exit carries the logical mask.
	bl = NewBlossom(cheap(1e-9))
	obs, err = bl.Decode([]int{1, 2})
	if err != nil || !obs {
		t.Fatalf("unlikely middle edge: got (%v,%v), want boundary rerouting with flip", obs, err)
	}
}
