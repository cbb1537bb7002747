package dem

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/extract"
)

// weightedHandPair builds a target/proposal pair of K disjoint
// single-detector mechanisms so parity plane i reveals exactly mechanism i's
// fires — the one topology where a test can reconstruct every shot's exact
// likelihood ratio from observable state alone.
func weightedHandPair(K int, boost float64) (*Model, *Model) {
	target := &Model{NumDets: K}
	prop := &Model{NumDets: K}
	for i := 0; i < K; i++ {
		p := 0.002 + 0.003*float64(i%7)
		q := p * boost
		if q > 0.5 {
			q = 0.5
		}
		dets := []int32{int32(i)}
		target.Mechs = append(target.Mechs, Mechanism{Dets: dets, Obs: i%2 == 0, P: p})
		prop.Mechs = append(prop.Mechs, Mechanism{Dets: dets, Obs: i%2 == 0, P: q})
	}
	return target, prop
}

// Every shot's log weight must equal the sum, over all mechanisms, of the
// fired/not-fired log likelihood ratio — reconstructed independently from
// the parity planes of a disjoint-footprint model.
func TestWeightedBatchSamplerExactWeights(t *testing.T) {
	for _, boost := range []float64{1, 2.5, 8, 200} {
		target, prop := weightedHandPair(37, boost)
		ws, err := NewWeightedBatchSampler(target, prop)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewChaCha8([32]byte{1, 9}))
		for trial, n := range []int{64, 1, 17, 64, 3, 1, 64} {
			ws.SampleN(rng, n)
			for s := 0; s < n; s++ {
				want := 0.0
				for i := range target.Mechs {
					p, q := target.Mechs[i].P, prop.Mechs[i].P
					if ws.parity[i]&(1<<uint(s)) != 0 {
						want += math.Log(p) - math.Log(q)
					} else {
						want += math.Log1p(-p) - math.Log1p(-q)
					}
				}
				got := ws.LogWeight(s)
				if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("boost %g trial %d shot %d (n=%d): log weight %g, want %g",
						boost, trial, s, n, got, want)
				}
				if w := ws.Weight(s); w != math.Exp(got) {
					t.Fatalf("Weight %g != exp(LogWeight) %g", w, math.Exp(got))
				}
			}
		}
	}
}

// A boost-1 proposal (target == proposal probabilities) must collapse to the
// plain sampler exactly: weights exactly 1.0, identical parity planes and
// observable word, and identical RNG consumption.
func TestWeightedBoostOneIsPlainSampler(t *testing.T) {
	_, m := buildModel(t, extract.CompactInterleaved, 3)
	prop := &Model{NumDets: m.NumDets, Stats: m.Stats, Mechs: append([]Mechanism(nil), m.Mechs...)}
	ws, err := NewWeightedBatchSampler(m, prop)
	if err != nil {
		t.Fatal(err)
	}
	if ws.BaseLogWeight() != 0 {
		t.Fatalf("boost-1 base log weight %g, want exactly 0", ws.BaseLogWeight())
	}
	plain := m.NewBatchSampler()
	seed := [32]byte{42, 3}
	rngW := rand.New(rand.NewChaCha8(seed))
	rngP := rand.New(rand.NewChaCha8(seed))
	for trial := 0; trial < 12; trial++ {
		n := BatchShots
		if trial%3 == 1 {
			n = 1 + trial
		}
		ws.SampleN(rngW, n)
		plain.SampleN(rngP, n)
		for d := range plain.parity {
			if ws.parity[d] != plain.parity[d] {
				t.Fatalf("trial %d: parity plane %d diverged", trial, d)
			}
		}
		if ws.ObsWord() != plain.ObsWord() {
			t.Fatalf("trial %d: obs word diverged", trial)
		}
		for s := 0; s < n; s++ {
			if lw := ws.LogWeight(s); lw != 0 {
				t.Fatalf("trial %d shot %d: log weight %g, want exactly 0", trial, s, lw)
			}
			if w := ws.Weight(s); w != 1 {
				t.Fatalf("trial %d shot %d: weight %g, want exactly 1", trial, s, w)
			}
		}
	}
	if rngW.Uint64() != rngP.Uint64() {
		t.Fatal("weighted and plain samplers consumed the RNG differently")
	}
}

// Importance weights must average to 1 (the proposal-expectation of the
// likelihood ratio is exactly 1): fixed-seed empirical mean within a few
// standard errors.
func TestWeightedMeanNearOne(t *testing.T) {
	target, prop := weightedHandPair(25, 6)
	ws, err := NewWeightedBatchSampler(target, prop)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewChaCha8([32]byte{7, 7}))
	var sum, sum2 float64
	n := 0
	for b := 0; b < 500; b++ {
		ws.Sample(rng)
		for s := 0; s < BatchShots; s++ {
			w := ws.Weight(s)
			if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				t.Fatalf("degenerate weight %g", w)
			}
			sum += w
			sum2 += w * w
			n++
		}
	}
	mean := sum / float64(n)
	se := math.Sqrt((sum2/float64(n) - mean*mean) / float64(n))
	if math.Abs(mean-1) > 5*se+1e-3 {
		t.Fatalf("mean weight %g ± %g over %d shots, want 1", mean, se, n)
	}
}

// Structure-derived models sharing footprint backing must pass alignment
// checks, and weights over a real circuit model must stay finite.
func TestWeightedRealModelBoost(t *testing.T) {
	e, _ := buildModel(t, extract.Baseline, 3)
	st, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := e.NoiseProbs(e.Config.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := st.Reweight(probs)
	if err != nil {
		t.Fatal(err)
	}
	boosted := make([]float64, len(probs))
	for i, p := range probs {
		q := p
		if p > 0 && p < 0.5 {
			q = math.Min(4*p, 0.5)
		}
		boosted[i] = q
	}
	prop, err := st.Reweight(boosted)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWeightedBatchSampler(target, prop)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewChaCha8([32]byte{11}))
	for b := 0; b < 20; b++ {
		ws.Sample(rng)
		for s := 0; s < BatchShots; s++ {
			if lw := ws.LogWeight(s); math.IsNaN(lw) || math.IsInf(lw, 0) {
				t.Fatalf("batch %d shot %d: degenerate log weight %g", b, s, lw)
			}
		}
	}
}

// Misaligned target/proposal pairs must be rejected with an error, not
// silently produce biased weights.
func TestWeightedValidation(t *testing.T) {
	target, prop := weightedHandPair(5, 2)
	cases := []struct {
		name string
		prop *Model
	}{
		{"nil proposal", nil},
		{"detector mismatch", &Model{NumDets: 4, Mechs: prop.Mechs}},
		{"mechanism count", &Model{NumDets: 5, Mechs: prop.Mechs[:4]}},
		{"footprint", func() *Model {
			m := &Model{NumDets: 5, Mechs: append([]Mechanism(nil), prop.Mechs...)}
			m.Mechs[2].Dets = []int32{3}
			return m
		}()},
		{"obs flag", func() *Model {
			m := &Model{NumDets: 5, Mechs: append([]Mechanism(nil), prop.Mechs...)}
			m.Mechs[1].Obs = !m.Mechs[1].Obs
			return m
		}()},
		{"zero-support", func() *Model {
			m := &Model{NumDets: 5, Mechs: append([]Mechanism(nil), prop.Mechs...)}
			m.Mechs[0].P = 0
			return m
		}()},
		{"always-fire", func() *Model {
			m := &Model{NumDets: 5, Mechs: append([]Mechanism(nil), prop.Mechs...)}
			m.Mechs[0].P = 1
			return m
		}()},
	}
	for _, tc := range cases {
		if _, err := NewWeightedBatchSampler(target, tc.prop); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	if _, err := NewWeightedBatchSampler(nil, prop); err == nil {
		t.Error("nil target: expected error, got nil")
	}
	if _, err := NewWeightedBatchSampler(target, prop); err != nil {
		t.Errorf("aligned pair rejected: %v", err)
	}
}

// Resetting the embedded BatchSampler drops back to plain unweighted mode:
// a recycled sampler must not leak stale weight tables.
func TestWeightedResetToPlain(t *testing.T) {
	target, prop := weightedHandPair(9, 3)
	ws, err := NewWeightedBatchSampler(target, prop)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewChaCha8([32]byte{5}))
	ws.Sample(rng)
	ws.BatchSampler.Reset(target)
	if ws.wlam != nil || ws.wbase != 0 {
		t.Fatal("plain Reset left weighted hooks installed")
	}
	ws.Sample(rng) // must not touch logw
	if err := ws.Reset(target, prop); err != nil {
		t.Fatal(err)
	}
	ws.Sample(rng)
	if ws.wlam == nil {
		t.Fatal("weighted Reset did not reinstall weight tables")
	}
}
