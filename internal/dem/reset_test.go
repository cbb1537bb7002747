package dem

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// Reset evaluates its logarithms once per distinct probability value. The
// sampler tables must equal a per-mechanism evaluation bit for bit: on
// models reweighted from a Structure (a few dozen distinct values), on a
// hand-built pair with a distinct value per mechanism (which outgrows the
// memo's first table) where consecutive entries repeat a target value
// under another proposal value, and with one sampler reused across all of
// them.
func TestSamplerTablesMatchPerMechanism(t *testing.T) {
	e, _ := buildModel(t, extract.CompactInterleaved, 5)
	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]*Model // target, proposal
	for _, phys := range []float64{2e-3, 1e-2} {
		noise, err := e.NoiseProbs(hardware.Default().ScaledGatesTo(phys), nil)
		if err != nil {
			t.Fatal(err)
		}
		target, err := s.Reweight(noise)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := s.Reweight(boostNoise(2, noise))
		if err != nil {
			t.Fatal(err)
		}
		alignModels(target, prop)
		pairs = append(pairs, [2]*Model{target, prop})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	target, prop := &Model{NumDets: 1}, &Model{NumDets: 1}
	p := 0.0
	for i := range 500 {
		boost := 3.0
		switch {
		case i%50 == 0:
			p = 0 // never fires
		case i%50 == 1:
			p = 1 // fires in every shot
		case i%4 == 3:
			boost = 2 // the previous target value, another proposal value
		default:
			p = 1e-6 + 0.4*rng.Float64()
		}
		q := p
		if p > 0 && p < 1 {
			q = math.Min(boost*p, 0.5)
		}
		target.Mechs = append(target.Mechs, Mechanism{Dets: []int32{0}, P: p})
		prop.Mechs = append(prop.Mechs, Mechanism{Dets: []int32{0}, P: q})
	}
	pairs = append(pairs, [2]*Model{target, prop})

	var bs BatchSampler
	var ws WeightedBatchSampler
	for _, pr := range pairs {
		bs.Reset(pr[0])
		checkPlainTables(t, &bs, pr[0])
		if err := ws.Reset(pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
		checkPlainTables(t, &ws.BatchSampler, pr[1])
		base := 0.0
		for k, mi := range ws.mech {
			p, q := pr[0].Mechs[mi].P, pr[1].Mechs[mi].P
			lp1, lq1 := math.Log1p(-p), math.Log1p(-q)
			base += lp1 - lq1
			if lam := (math.Log(p) - math.Log(q)) - (lp1 - lq1); ws.lam[k] != lam {
				t.Fatalf("entry %d (p=%g, q=%g): lam %g, per-mechanism %g", k, p, q, ws.lam[k], lam)
			}
		}
		if ws.wbase != base {
			t.Fatalf("base log weight %g, per-mechanism %g", ws.wbase, base)
		}
	}
}

// checkPlainTables requires bs's stream tables to equal a per-mechanism
// evaluation over m.
func checkPlainTables(t *testing.T, bs *BatchSampler, m *Model) {
	t.Helper()
	k := 0
	var always []int32
	for i := range m.Mechs {
		p := m.Mechs[i].P
		switch {
		case p <= 0:
			continue
		case p >= 1:
			always = append(always, int32(i))
			continue
		}
		l := math.Log1p(-p)
		if k >= len(bs.mech) || bs.mech[k] != int32(i) || bs.p[k] != p || bs.logq[k] != l ||
			bs.inv[k] != 1/l || bs.pAny64[k] != -math.Expm1(BatchShots*l) {
			t.Fatalf("mechanism %d (p=%g): stream entry %d does not match a per-mechanism evaluation", i, p, k)
		}
		k++
	}
	if k != len(bs.mech) || !slices.Equal(bs.always, always) {
		t.Fatalf("%d stream entries and always-fire %v, want %d and %v", len(bs.mech), bs.always, k, always)
	}
}
