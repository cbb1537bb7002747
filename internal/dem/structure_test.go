package dem

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// Structure + Reweight must reproduce a fresh Build bit for bit — same
// mechanisms, same footprints, same probabilities — across noise scales,
// even though only the first build runs fault analysis.
func TestStructureReweightMatchesFreshBuild(t *testing.T) {
	for _, scheme := range []extract.Scheme{extract.Baseline, extract.CompactInterleaved} {
		cfg := extract.Config{Scheme: scheme, Distance: 3, Basis: extract.BasisZ, Params: hardware.Default()}
		base, err := extract.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildStructure(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, phys := range []float64{1e-3, 2e-3, 5e-3, 1.3e-2} {
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

			probs, err := base.NoiseProbs(params, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Reweight(probs)
			if err != nil {
				t.Fatal(err)
			}

			if got.NumDets != want.NumDets {
				t.Fatalf("%v p=%g: NumDets %d vs %d", scheme, phys, got.NumDets, want.NumDets)
			}
			if got.Stats != want.Stats {
				t.Errorf("%v p=%g: stats %+v vs %+v", scheme, phys, got.Stats, want.Stats)
			}
			if len(got.Mechs) != len(want.Mechs) {
				t.Fatalf("%v p=%g: %d mechanisms vs %d", scheme, phys, len(got.Mechs), len(want.Mechs))
			}
			for i := range got.Mechs {
				g, w := &got.Mechs[i], &want.Mechs[i]
				if g.Obs != w.Obs || g.P != w.P || !reflect.DeepEqual(g.Dets, w.Dets) {
					t.Fatalf("%v p=%g: mechanism %d differs: %+v vs %+v", scheme, phys, i, *g, *w)
				}
			}

			// The decoding graphs must agree bit for bit too.
			gg, err := got.DecodingGraph()
			if err != nil {
				t.Fatal(err)
			}
			wg, err := want.DecodingGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gg.Edges, wg.Edges) {
				t.Fatalf("%v p=%g: decoding graphs differ", scheme, phys)
			}
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
