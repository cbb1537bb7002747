package decoder

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// weightTol is the conformance tolerance for matching-weight parity between
// Blossom and Exact: Blossom optimizes integer weights (blossomScale
// rounding), so on near-ties it may pick a float-equivalent matching whose
// reported weight differs by the accumulated rounding, bounded well below
// this. Any real matcher bug is off by at least one edge weight (~1).
func weightTol(w float64) float64 { return 1e-4 * (1 + math.Abs(w)) }

// cyclicGraph builds a small decoding graph with odd cycles and varied
// weights — the shape that forces blossom formation, which line graphs and
// trees never do. Nodes 0..n-1 in a ring of pair edges, chords every third
// node, boundary edges on nodes 0 and n/2, logical mask on one chord and
// one boundary edge.
func cyclicGraph(n int, seed uint64) *dem.Graph {
	rng := rand.New(rand.NewPCG(seed, 0))
	m := &dem.Model{NumDets: n}
	add := func(dets []int32, obs bool, p float64) {
		m.Mechs = append(m.Mechs, dem.Mechanism{Dets: dets, Obs: obs, P: p})
	}
	p := func() float64 { return 1e-4 * math.Exp(rng.Float64()*5) }
	for i := 0; i < n; i++ {
		add([]int32{int32(i), int32((i + 1) % n)}, false, p())
	}
	for i := 0; i+3 < n; i += 3 {
		add([]int32{int32(i), int32(i + 3)}, i == 3, p())
	}
	add([]int32{0}, false, p())
	add([]int32{int32(n / 2)}, true, p())
	g, err := m.DecodingGraph()
	if err != nil {
		panic(err)
	}
	return g
}

// TestBlossomMatchesExactOnCyclicGraphs drives Blossom and Exact over every
// event subset of a small cyclic graph (and random subsets of a bigger
// one), asserting exact-weight parity. Exhaustive subsets of the small
// graph cover blossom formation, shattering, and boundary exits.
func TestBlossomMatchesExactOnCyclicGraphs(t *testing.T) {
	small := cyclicGraph(9, 1)
	ex := NewExact(small)
	blos := NewBlossom(small)
	var events []int
	for mask := 0; mask < 1<<9; mask++ {
		events = events[:0]
		for i := 0; i < 9; i++ {
			if mask&(1<<i) != 0 {
				events = append(events, i)
			}
		}
		wantObs, wantW, wantErr := ex.DecodeWithWeight(events)
		gotObs, gotW, gotErr := blos.DecodeWithWeight(events)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("mask %b: exact err %v vs blossom err %v", mask, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Abs(wantW-gotW) > weightTol(wantW) {
			t.Fatalf("mask %b (events %v): exact weight %g vs blossom %g", mask, events, wantW, gotW)
		}
		// Predictions must agree except on exact weight ties, where either
		// optimal matching is a legitimate answer.
		if gotObs != wantObs {
			if oppW := minWeightWithObs(t, small, events, !wantObs); math.Abs(oppW-wantW) > weightTol(wantW) {
				t.Fatalf("mask %b (events %v): blossom obs %v vs exact %v with no weight tie (%g vs %g)",
					mask, events, gotObs, wantObs, oppW, wantW)
			}
		}
	}

	big := cyclicGraph(16, 7)
	ex = NewExact(big)
	blos = NewBlossom(big)
	rng := rand.New(rand.NewPCG(2, 0))
	for trial := 0; trial < 3000; trial++ {
		events = events[:0]
		for i := 0; i < 16; i++ {
			if rng.IntN(3) == 0 {
				events = append(events, i)
			}
		}
		wantObs, wantW, wantErr := ex.DecodeWithWeight(events)
		_, gotW, gotErr := blos.DecodeWithWeight(events)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d (events %v): exact err %v vs blossom err %v", trial, events, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Abs(wantW-gotW) > weightTol(wantW) {
			t.Fatalf("trial %d (events %v): exact weight %g vs blossom %g", trial, events, wantW, gotW)
		}
		_ = wantObs
	}
}

// minWeightWithObs returns the minimum matching weight among matchings
// predicting the given observable — the tie check for prediction
// disagreements. Brute force over pairings, so only for tiny event sets.
func minWeightWithObs(t *testing.T, g *dem.Graph, events []int, obs bool) float64 {
	t.Helper()
	n := g.NumNodes
	ex := NewExact(g)
	dist := make([]float64, n+1)
	mask := make([]bool, n+1)
	k := len(events)
	pd := make([][]float64, k)
	pm := make([][]bool, k)
	bd := make([]float64, k)
	bm := make([]bool, k)
	for i, ev := range events {
		dijkstra(g, ev, dist, mask, &ex.heap)
		pd[i] = make([]float64, k)
		pm[i] = make([]bool, k)
		for j, ev2 := range events {
			pd[i][j] = dist[ev2]
			pm[i][j] = mask[ev2]
		}
		bd[i] = dist[n]
		bm[i] = mask[n]
	}
	best := math.Inf(1)
	var rec func(used int, acc bool, w float64)
	rec = func(used int, acc bool, w float64) {
		i := 0
		for i < k && used&(1<<i) != 0 {
			i++
		}
		if i == k {
			if acc == obs && w < best {
				best = w
			}
			return
		}
		rec(used|1<<i, acc != bm[i], w+bd[i])
		for j := i + 1; j < k; j++ {
			if used&(1<<j) == 0 {
				rec(used|1<<i|1<<j, acc != pm[i][j], w+pd[i][j])
			}
		}
	}
	rec(0, false, 0)
	return best
}

// conformanceCase is one (scheme, distance, noise scale) cell of the
// cross-decoder suite.
type conformanceCase struct {
	scheme extract.Scheme
	d      int
	phys   float64
	shots  int
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{extract.Baseline, 3, 2e-3, 1200},
		{extract.Baseline, 3, 8e-3, 800},
		{extract.Baseline, 5, 4e-3, 500},
		{extract.Baseline, 7, 4e-3, 300},
		{extract.CompactInterleaved, 3, 2e-3, 1200},
		{extract.CompactInterleaved, 3, 8e-3, 800},
		{extract.CompactInterleaved, 5, 4e-3, 500},
		{extract.CompactInterleaved, 7, 4e-3, 300},
		{extract.NaturalInterleaved, 5, 4e-3, 500},
	}
}

// TestCrossDecoderConformance decodes the same sampled syndrome batches
// with every decoder kind on circuit-level graphs for scheme x distance x
// noise scale. It pins (a) exact-weight parity between Blossom and Exact on
// every shot Exact can handle, and (b) logical-error-rate agreement of
// union-find and Blossom within binomial error at fixed seeds — the
// accuracy contract that makes the decoder swap safe.
func TestCrossDecoderConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		shots := tc.shots
		if testing.Short() {
			shots = min(shots, 200)
		}
		m, g := circuitGraph(t, tc.scheme, tc.d, tc.phys)
		uf := NewUnionFind(g)
		ex := NewExact(g)
		blos := NewBlossom(g)

		// Sample one packed batch set per case; every decoder sees the same
		// shots via the shared Batch container.
		s := m.NewSampler()
		rng := rand.New(rand.NewPCG(uint64(tc.d)*1000+uint64(tc.phys*1e6), 9))
		var batch Batch
		batch.Reset()
		truth := make([]bool, 0, shots)
		for len(truth) < shots {
			events, obs := s.Sample(rng)
			batch.Add(events)
			truth = append(truth, obs)
		}

		decode := func(d BatchDecoder) []bool {
			out := make([]bool, batch.Len())
			if err := d.DecodeBatch(&batch, out); err != nil {
				t.Fatalf("%v d=%d p=%g: %s: %v", tc.scheme, tc.d, tc.phys, d.Name(), err)
			}
			return out
		}
		ufOut := decode(uf)
		blOut := decode(blos)

		// Weight parity vs the ground-truth DP wherever it is tractable.
		checked := 0
		for i := 0; i < batch.Len(); i++ {
			ev := batch.Shot(i)
			if len(ev) == 0 {
				checked++ // empty syndrome: weight 0 on both, trivially
				continue
			}
			if len(ev) > ex.MaxEvents {
				continue
			}
			_, wantW, err := ex.DecodeWithWeight(ev)
			if err != nil {
				continue
			}
			_, gotW, err := blos.DecodeWithWeight(ev)
			if err != nil {
				t.Fatalf("%v d=%d p=%g shot %d: blossom: %v", tc.scheme, tc.d, tc.phys, i, err)
			}
			if math.Abs(wantW-gotW) > weightTol(wantW) {
				t.Errorf("%v d=%d p=%g shot %d (events %v): exact weight %g vs blossom %g",
					tc.scheme, tc.d, tc.phys, i, ev, wantW, gotW)
			}
			checked++
		}
		if checked < shots/2 {
			t.Fatalf("%v d=%d p=%g: only %d/%d shots weight-checked", tc.scheme, tc.d, tc.phys, checked, shots)
		}

		// Logical error rates agree within binomial error across decoders.
		rate := func(out []bool) (float64, float64) {
			fails := 0
			for i, pred := range out {
				if pred != truth[i] {
					fails++
				}
			}
			p := float64(fails) / float64(len(out))
			return p, math.Sqrt(p*(1-p)/float64(len(out))) + 1e-9
		}
		blRate, blSE := rate(blOut)
		if r, se := rate(ufOut); math.Abs(r-blRate) > 4*(se+blSE) {
			t.Errorf("%v d=%d p=%g: union-find rate %.4f vs blossom %.4f beyond 4 sigma",
				tc.scheme, tc.d, tc.phys, r, blRate)
		}
	}
}

// TestBlossomDeterminismAndRebind pins buffer-reuse correctness: repeated
// decodes of the same shots are identical, and a decoder rebound to a
// reweighted graph of the same topology matches a freshly built one.
func TestBlossomDeterminismAndRebind(t *testing.T) {
	m, g := circuitGraph(t, extract.CompactInterleaved, 3, 4e-3)
	blos := NewBlossom(g)
	s := m.NewSampler()
	rng := rand.New(rand.NewPCG(71, 0))
	shots := make([][]int, 200)
	first := make([]bool, len(shots))
	for i := range shots {
		ev, _ := s.Sample(rng)
		shots[i] = append([]int(nil), ev...)
		obs, err := blos.Decode(shots[i])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = obs
	}
	for i := range shots {
		obs, err := blos.Decode(shots[i])
		if err != nil {
			t.Fatal(err)
		}
		if obs != first[i] {
			t.Fatalf("shot %d: nondeterministic decode", i)
		}
	}

	// Rebind to the same experiment at a different noise scale.
	e, err := extract.Build(extract.Config{
		Scheme: extract.CompactInterleaved, Distance: 3, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledTo(8e-3),
	})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := dem.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m2.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes != g.NumNodes || len(g2.Edges) != len(g.Edges) {
		t.Skip("reweighted graph changed shape; rebind not applicable")
	}
	if !blos.Rebind(g2) {
		t.Fatal("rebind refused a same-shape graph")
	}
	fresh := NewBlossom(g2)
	s2 := m2.NewSampler()
	for trial := 0; trial < 200; trial++ {
		ev, _ := s2.Sample(rng)
		a, _, err1 := blos.DecodeWithWeight(ev)
		b, _, err2 := fresh.DecodeWithWeight(ev)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if a != b {
			t.Fatalf("trial %d: rebound decoder diverged from fresh build", trial)
		}
	}
}
