package dem

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// Structure + Reweight must reproduce a fresh Build bit for bit — same
// mechanisms, same footprints, same probabilities — across every scheme,
// basis and distance, at several gate-error rates and cavity coherence
// times, although only the first build runs fault analysis and Reweight
// folds each mechanism class once from the recipe noise vector. The same
// holds for the boosted rare-event proposal after alignment, and for the
// decoding graph, whose class-grouped weighting must equal a per-edge
// weighting of the fresh model.
func TestStructureReweightMatchesFreshBuild(t *testing.T) {
	type point struct {
		name   string
		params hardware.Params
	}
	var points []point
	for _, phys := range []float64{1e-3, 5e-3, 1.3e-2} {
		points = append(points, point{fmt.Sprintf("p=%g", phys), hardware.Default().ScaledGatesTo(phys)})
	}
	for _, t1 := range []float64{1e-5, 1e-3, 1e-1} { // the cavity-T1 panel's ends and middle
		params := hardware.Default()
		params.T1Cavity = t1
		points = append(points, point{fmt.Sprintf("T1c=%g", t1), params})
	}
	distances := []int{3, 5, 7, 9, 11}
	if testing.Short() {
		distances = distances[:3]
	}
	const boost = 1.5
	for _, scheme := range extract.Schemes {
		for _, basis := range []extract.Basis{extract.BasisZ, extract.BasisX} {
			for _, d := range distances {
				t.Run(fmt.Sprintf("%v/%v/d%d", scheme, basis, d), func(t *testing.T) {
					cfg := extract.Config{Scheme: scheme, Distance: d, Basis: basis, Params: hardware.Default()}
					base, err := extract.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s, err := BuildStructure(base)
					if err != nil {
						t.Fatal(err)
					}
					for _, pt := range points {
						fresh := cfg
						fresh.Params = pt.params
						exp2, err := extract.Build(fresh)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := BuildStructure(exp2)
						if err != nil {
							t.Fatal(err)
						}
						ops := exp2.Circ.OpProbs(nil)
						want := ref.foldOps(ops)
						wantProp := ref.foldOps(boostNoise(boost, ops))
						alignModels(want, wantProp)

						noise, err := base.NoiseProbs(pt.params, nil)
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.Reweight(noise)
						if err != nil {
							t.Fatal(err)
						}
						prop, err := s.Reweight(boostNoise(boost, noise))
						if err != nil {
							t.Fatal(err)
						}
						alignModels(got, prop)
						assertSameModel(t, pt.name+" target", got, want)
						assertSameModel(t, pt.name+" proposal", prop, wantProp)

						gotG, err := got.DecodingGraph()
						if err != nil {
							t.Fatal(err)
						}
						refGS, err := ref.Graph()
						if err != nil {
							t.Fatal(err)
						}
						assertSameGraph(t, pt.name, gotG, weightPerEdge(refGS, want))
					}
				})
			}
		}
	}
}

// weightPerEdge is the reference for GraphStructure.Weight: every candidate
// edge XOR-folds its own source mechanisms and converts its total to a
// weight, with no edge classes.
func weightPerEdge(gs *GraphStructure, m *Model) *Graph {
	g := &Graph{NumNodes: gs.NumNodes, Adj: make([][]int32, gs.NumNodes)}
	g.Stats.DecomposedOK, g.Stats.DecomposedDirty = gs.decomposedOK, gs.decomposedDirty
	for i, c := range gs.cand {
		var pFalse, pTrue float64
		for k := gs.srcOff[i]; k < gs.srcOff[i+1]; k++ {
			if p := m.Mechs[gs.srcMech[k]].P; gs.srcObs[k] {
				pTrue = xorProb(pTrue, p)
			} else {
				pFalse = xorProb(pFalse, p)
			}
		}
		p := xorProb(pFalse, pTrue)
		if p <= 0 {
			continue
		}
		if pTrue > 0 && pFalse > 0 {
			g.Stats.AmbiguousClasses++
			g.Stats.AmbiguousMass += math.Min(pTrue, pFalse)
		}
		if c.V == BoundaryNode {
			g.Stats.BoundaryEdges++
		}
		ei := int32(len(g.Edges))
		g.Edges = append(g.Edges, Edge{U: c.U, V: c.V, P: p, W: WeightOf(p), Obs: pTrue > pFalse})
		g.Adj[c.U] = append(g.Adj[c.U], ei)
		if c.V != BoundaryNode {
			g.Adj[c.V] = append(g.Adj[c.V], ei)
		}
	}
	g.Stats.Edges = len(g.Edges)
	return g
}

// assertSameGraph requires got and want to agree bit for bit: edges,
// adjacency and stats.
func assertSameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.NumNodes != want.NumNodes || !reflect.DeepEqual(got.Edges, want.Edges) || got.Stats != want.Stats {
		t.Fatalf("%s: decoding graph (%d edges, %+v) differs from the per-edge weighting (%d edges, %+v)",
			name, len(got.Edges), got.Stats, len(want.Edges), want.Stats)
	}
	for v := range want.Adj {
		if !slices.Equal(got.Adj[v], want.Adj[v]) {
			t.Fatalf("%s: adjacency of node %d differs from the per-edge weighting", name, v)
		}
	}
}

// A model whose mechanisms fold some edges to zero drops those edges:
// Weight must compact the rest, rebuild the adjacency and count the stats
// (ambiguous edges included) exactly as a per-edge weighting does, for a
// structure-backed topology and for one derived from a hand-assembled
// model.
func TestGraphWeightDropsZeroEdges(t *testing.T) {
	e, m := buildModel(t, extract.CompactInterleaved, 3)
	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Zero whole mechanism classes, so that the structure-backed leg
	// weighs by edge class rather than edge by edge.
	zeroed := &Model{NumDets: m.NumDets, Stats: m.Stats, Mechs: slices.Clone(m.Mechs)}
	for i := range zeroed.Mechs {
		if s.mechClass[i]%3 == 1 {
			zeroed.Mechs[i].P = 0
		}
	}
	if !gs.classesHold(zeroed) {
		t.Fatal("zeroing whole classes broke a mechanism class")
	}
	looseGS, err := zeroed.GraphStructure()
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		gs   *GraphStructure
	}{{"structure", gs}, {"hand-assembled", looseGS}} {
		got, err := leg.gs.Weight(zeroed)
		if err != nil {
			t.Fatal(err)
		}
		want := weightPerEdge(leg.gs, zeroed)
		if len(want.Edges) == gs.NumEdges() || want.Stats.AmbiguousClasses == 0 {
			t.Fatalf("%s: the leg drops %d of %d edges with %d ambiguous; it must drop some and keep an ambiguous one",
				leg.name, gs.NumEdges()-len(want.Edges), gs.NumEdges(), want.Stats.AmbiguousClasses)
		}
		assertSameGraph(t, leg.name, got, want)
	}
}

// WeightInto reuses one caller-owned Graph from weighing to weighing,
// across two topologies: every result must equal a fresh Weight's bit for
// bit and share its topology's adjacency, and the edge slice must be
// reused once it has held the largest graph.
func TestGraphWeightIntoRecyclesGraph(t *testing.T) {
	type leg struct {
		gs *GraphStructure
		m  *Model
	}
	var legs []leg
	for _, d := range []int{5, 3} {
		e, m := buildModel(t, extract.CompactInterleaved, d)
		s, err := BuildStructure(e)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		legs = append(legs, leg{gs, m})
	}
	g := &Graph{}
	var edges *Edge
	for pass := range 2 {
		for _, l := range legs {
			name := fmt.Sprintf("pass %d, %d nodes", pass, l.gs.NumNodes)
			if err := l.gs.WeightInto(l.m, g); err != nil {
				t.Fatal(err)
			}
			want, err := l.gs.Weight(l.m)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, name, g, want)
			if &g.Adj[0] != &l.gs.adj[0] {
				t.Errorf("%s: no edge dropped, but the graph does not share the topology's adjacency", name)
			}
			if pass == 1 && &g.Edges[:1][0] != edges {
				t.Errorf("%s: the edge slice was reallocated after the largest graph", name)
			}
		}
		edges = &g.Edges[:1][0]
	}
}

// A reweighted model whose probabilities are then edited mechanism by
// mechanism, or a Build of a circuit annotated unevenly within a recipe,
// no longer gives a mechanism class one probability: Weight must notice
// and weigh every edge from its own sources.
func TestGraphWeightUnevenClasses(t *testing.T) {
	e, m := buildModel(t, extract.Baseline, 5)
	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.classRep) == gs.NumEdges() {
		t.Fatal("every edge is its own class; the test needs shared ones")
	}
	noise, err := e.NoiseProbs(e.Config.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	uneven, err := s.Reweight(noise)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "reweight", uneven, m)
	for i := range uneven.Mechs {
		if i%3 == 0 {
			uneven.Mechs[i].P *= 1.5
		}
	}
	if gs.classesHold(uneven) {
		t.Fatal("the edit left every mechanism class uniform")
	}
	got, err := uneven.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, "edited reweight", got, weightPerEdge(gs, uneven))

	probs := e.Circ.OpProbs(nil)
	for i := range probs {
		if i%2 == 0 {
			probs[i] *= 1.3
		}
	}
	if err := e.Circ.SetOpProbs(probs); err != nil {
		t.Fatal(err)
	}
	built, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	builtGS, err := built.GraphStructure()
	if err != nil {
		t.Fatal(err)
	}
	if builtGS.classesHold(built) {
		t.Fatal("the uneven annotation left every mechanism class uniform")
	}
	if got, err = built.DecodingGraph(); err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, "uneven build", got, weightPerEdge(builtGS, built))
}

// assertSameModel requires got and want to agree bit for bit.
func assertSameModel(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if got.NumDets != want.NumDets || got.Stats != want.Stats || len(got.Mechs) != len(want.Mechs) {
		t.Fatalf("%s: shape (%d dets, %d mechanisms, %+v), want (%d, %d, %+v)", name,
			got.NumDets, len(got.Mechs), got.Stats, want.NumDets, len(want.Mechs), want.Stats)
	}
	for i := range got.Mechs {
		g, w := &got.Mechs[i], &want.Mechs[i]
		if g.Obs != w.Obs || math.Float64bits(g.P) != math.Float64bits(w.P) || !slices.Equal(g.Dets, w.Dets) {
			t.Fatalf("%s: mechanism %d differs: %+v vs %+v", name, i, *g, *w)
		}
	}
}

// The hoisted graph topology must be invisible in results: a Structure's
// build-once GraphStructure weighted at any noise scale must reproduce a
// fresh Model.DecodingGraph() (its own fault analysis, its own topology
// derivation) bit for bit — edges, weights, adjacency, and stats — across
// schemes, distances, and noise scales.
func TestHoistedGraphMatchesFreshBuild(t *testing.T) {
	cases := []struct {
		scheme extract.Scheme
		d      int
		rates  []float64
	}{
		{extract.Baseline, 3, []float64{8e-4, 2e-3, 5e-3, 1.3e-2}},
		{extract.NaturalAllAtOnce, 3, []float64{2e-3, 8e-3}},
		{extract.CompactInterleaved, 3, []float64{8e-4, 2e-3, 5e-3, 1.3e-2}},
		{extract.CompactInterleaved, 5, []float64{2e-3, 8e-3}},
	}
	for _, tc := range cases {
		cfg := extract.Config{Scheme: tc.scheme, Distance: tc.d, Basis: extract.BasisZ, Params: hardware.Default()}
		base, err := extract.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildStructure(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, phys := range tc.rates {
			params := hardware.Default().ScaledGatesTo(phys)

			fresh := cfg
			fresh.Params = params
			exp2, err := extract.Build(fresh)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(exp2)
			if err != nil {
				t.Fatal(err)
			}
			wantG, err := want.DecodingGraph()
			if err != nil {
				t.Fatal(err)
			}

			probs, err := base.NoiseProbs(params, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := s.Reweight(probs)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := m.DecodingGraph()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(gotG.Edges, wantG.Edges) {
				t.Fatalf("%v d=%d p=%g: hoisted edges differ from fresh build", tc.scheme, tc.d, phys)
			}
			if !reflect.DeepEqual(gotG.Adj, wantG.Adj) {
				t.Fatalf("%v d=%d p=%g: adjacency differs", tc.scheme, tc.d, phys)
			}
			if gotG.Stats != wantG.Stats {
				t.Errorf("%v d=%d p=%g: stats %+v vs %+v", tc.scheme, tc.d, phys, gotG.Stats, wantG.Stats)
			}
		}
	}
}

// The topology must be derived exactly once per Structure: every reweighted
// model shares the same GraphStructure instance, so the per-scale hot path
// pays only the linear weighting pass.
func TestGraphTopologyBuiltOncePerStructure(t *testing.T) {
	cfg := extract.Config{Scheme: extract.CompactInterleaved, Distance: 3, Basis: extract.BasisZ, Params: hardware.Default()}
	e, err := extract.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if gs.NumEdges() == 0 {
		t.Fatal("empty hoisted topology")
	}
	for _, phys := range []float64{1e-3, 9e-3} {
		probs, err := e.NoiseProbs(hardware.Default().ScaledGatesTo(phys), nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Reweight(probs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.GraphStructure()
		if err != nil {
			t.Fatal(err)
		}
		if got != gs {
			t.Fatalf("p=%g: model does not share the structure's topology instance", phys)
		}
	}
}

// A hand-assembled Model (no backing Structure) must derive an equivalent
// topology on demand: same decoding graph as the structure-backed path.
func TestHandBuiltModelGraphMatchesStructurePath(t *testing.T) {
	_, m := buildModel(t, extract.Baseline, 3)
	want, err := m.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	loose := &Model{NumDets: m.NumDets, Mechs: m.Mechs, Stats: m.Stats}
	got, err := loose.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) || !reflect.DeepEqual(got.Adj, want.Adj) {
		t.Error("hand-built model's graph differs from the structure-backed graph")
	}
}

// Weight must reject a model that does not match the topology's shape.
func TestGraphWeightShapeCheck(t *testing.T) {
	_, m := buildModel(t, extract.Baseline, 3)
	gs, err := m.GraphStructure()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Weight(&Model{NumDets: m.NumDets, Mechs: m.Mechs[:3]}); err == nil {
		t.Error("mismatched mechanism count must be rejected")
	}
}

// Reweight must reject a probability vector of the wrong length.
func TestReweightLengthCheck(t *testing.T) {
	cfg := extract.Config{Scheme: extract.Baseline, Distance: 3, Basis: extract.BasisZ, Params: hardware.Default()}
	e, err := extract.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reweight(make([]float64, 3)); err == nil {
		t.Error("short probability vector must be rejected")
	}
}

// With batch width 1 the BatchSampler consumes the RNG exactly like the
// scalar Sampler (one Float64 per mechanism, firing iff the draw is below
// the mechanism probability), so identically-seeded streams must produce
// identical shots — and therefore identical failure counts under any
// decoder.
func TestBatchWidthOneMatchesScalarSampler(t *testing.T) {
	_, m := buildModel(t, extract.CompactInterleaved, 3)

	scalar := m.NewSampler()
	batch := m.NewBatchSampler()
	rngA := rand.New(rand.NewChaCha8([32]byte{1}))
	rngB := rand.New(rand.NewChaCha8([32]byte{1}))

	const shots = 3000
	for n := 0; n < shots; n++ {
		evA, obsA := scalar.Sample(rngA)
		batch.SampleN(rngB, 1)
		evB, obsB := batch.Shot(0)
		if obsA != obsB {
			t.Fatalf("shot %d: observable %v vs %v", n, obsA, obsB)
		}
		if !reflect.DeepEqual(append([]int{}, evA...), append([]int{}, evB...)) {
			t.Fatalf("shot %d: events %v vs %v", n, evA, evB)
		}
	}
}

// The word-packed 64-shot pass must agree with a straightforward scalar
// replay of the same skip-sampling protocol on an identical RNG stream:
// this pins down the packing, masking, and shot-extraction logic.
func TestBatchSamplerMatchesProtocolReplay(t *testing.T) {
	_, m := buildModel(t, extract.CompactInterleaved, 3)
	bs := m.NewBatchSampler()
	rngA := rand.New(rand.NewChaCha8([32]byte{7}))
	rngB := rand.New(rand.NewChaCha8([32]byte{7}))

	parity := make([]bool, m.NumDets)
	const batches = 200
	for bi := 0; bi < batches; bi++ {
		bs.Sample(rngA)

		// Scalar replay: same protocol, one shot at a time in a plain
		// bool-array representation.
		fired := make([][]int32, BatchShots) // per shot: mechanism indices
		for k, mi := range bs.mech {
			u := rngB.Float64()
			if u >= bs.pAny64[k] {
				continue
			}
			ff := math.Log1p(-u) * bs.inv[k]
			if ff >= BatchShots {
				continue
			}
			pos := int(ff)
			for {
				fired[pos] = append(fired[pos], mi)
				if pos+1 >= BatchShots {
					break
				}
				u2 := rngB.Float64()
				if u2 <= 0 {
					break
				}
				gap := math.Log(u2) * bs.inv[k]
				if gap >= BatchShots {
					break
				}
				pos += 1 + int(gap)
				if pos >= BatchShots {
					break
				}
			}
		}
		for s := 0; s < BatchShots; s++ {
			for i := range parity {
				parity[i] = false
			}
			obs := false
			for _, mi := range fired[s] {
				mech := &m.Mechs[mi]
				for _, d := range mech.Dets {
					parity[d] = !parity[d]
				}
				if mech.Obs {
					obs = !obs
				}
			}
			events, gotObs := bs.Shot(s)
			if gotObs != obs {
				t.Fatalf("batch %d shot %d: observable %v, replay %v", bi, s, gotObs, obs)
			}
			j := 0
			for d, v := range parity {
				if !v {
					continue
				}
				if j >= len(events) || events[j] != d {
					t.Fatalf("batch %d shot %d: events %v disagree with replay at detector %d", bi, s, events, d)
				}
				j++
			}
			if j != len(events) {
				t.Fatalf("batch %d shot %d: %d extra events", bi, s, len(events)-j)
			}
		}
	}
}

// Full-width batches must reproduce the scalar sampler's statistics: mean
// detection-event count and observable-flip rate within a few standard
// errors.
func TestBatchSamplerStatistics(t *testing.T) {
	_, m := buildModel(t, extract.NaturalInterleaved, 3)
	bs := m.NewBatchSampler()
	rng := rand.New(rand.NewChaCha8([32]byte{3}))

	const batches = 400 // 25,600 shots
	events, obsFlips := 0, 0
	for bi := 0; bi < batches; bi++ {
		bs.Sample(rng)
		for s := 0; s < BatchShots; s++ {
			ev, obs := bs.Shot(s)
			events += len(ev)
			if obs {
				obsFlips++
			}
		}
	}
	shots := float64(batches * BatchShots)
	got := float64(events) / shots
	want := m.ExpectedEventRate()
	if math.Abs(got-want) > 0.1*want+0.05 {
		t.Errorf("batch event rate %.4f vs analytic %.4f", got, want)
	}

	// Scalar reference for the raw observable-flip rate.
	scalar := m.NewSampler()
	rng2 := rand.New(rand.NewChaCha8([32]byte{4}))
	scalarFlips := 0
	const scalarShots = 25600
	for n := 0; n < scalarShots; n++ {
		if _, obs := scalar.Sample(rng2); obs {
			scalarFlips++
		}
	}
	a := float64(obsFlips) / shots
	b := float64(scalarFlips) / scalarShots
	if math.Abs(a-b) > 0.015 {
		t.Errorf("batch obs rate %.4f vs scalar %.4f", a, b)
	}
}

// Partial batches must only populate the requested shots.
func TestBatchSamplerPartialWidth(t *testing.T) {
	_, m := buildModel(t, extract.Baseline, 3)
	bs := m.NewBatchSampler()
	rng := rand.New(rand.NewChaCha8([32]byte{9}))
	bs.SampleN(rng, 5)
	if bs.Shots() != 5 {
		t.Fatalf("Shots() = %d", bs.Shots())
	}
	for _, w := range bs.parity {
		if w>>5 != 0 {
			t.Fatalf("parity bits set beyond requested width: %064b", w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Shot beyond drawn width must panic")
		}
	}()
	bs.Shot(5)
}
