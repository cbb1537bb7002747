package dem

import (
	"math"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// prepLeg is one cell of a per-scale benchmark: the cached structure of a
// scheme at d=11 and the noise vector of one physical rate, plus the
// boosted proposal column for a rare-event cell.
type prepLeg struct {
	name   string
	scheme extract.Scheme
	phys   float64
	boost  float64 // 0: a plain cell
}

// prepLegs are the two cells the per-scale stages cost most on: a Fig. 11
// tail cell (Compact-Interleaved d=11 near threshold) and the deeper
// rare-event golden cell (Baseline d=11, p=1e-3, boost 1.5).
var prepLegs = []prepLeg{
	{"ci-d11-p5e-3", extract.CompactInterleaved, 5e-3, 0},
	{"baseline-d11-p1e-3-rare", extract.Baseline, 1e-3, 1.5},
}

// boostNoise is the rare-event proposal column: probabilities in (0, 1/2)
// scale by boost, clamped at 1/2.
func boostNoise(boost float64, noise []float64) []float64 {
	out := make([]float64, len(noise))
	for i, p := range noise {
		out[i] = p
		if p > 0 && p < 0.5 {
			out[i] = math.Min(boost*p, 0.5)
		}
	}
	return out
}

// alignModels pins proposal mechanisms whose zero-support or always-fire
// class differs from the target's to the target probability, the
// weighted sampler's precondition.
func alignModels(target, prop *Model) {
	for i := range target.Mechs {
		p, q := target.Mechs[i].P, prop.Mechs[i].P
		if (p <= 0) != (q <= 0) || (p >= 1) != (q >= 1) {
			prop.Mechs[i].P = p
		}
	}
}

// prepared is one leg after its structure build: the structure, its graph
// topology, the noise vectors and their models.
type prepared struct {
	st           *Structure
	gs           *GraphStructure
	noise, boost []float64
	target, prop *Model
}

func prepare(b *testing.B, l prepLeg) prepared {
	e, err := extract.Build(extract.Config{Scheme: l.scheme, Distance: 11, Basis: extract.BasisZ, Params: hardware.Default()})
	if err != nil {
		b.Fatal(err)
	}
	var p prepared
	if p.st, err = BuildStructure(e); err != nil {
		b.Fatal(err)
	}
	if p.gs, err = p.st.Graph(); err != nil {
		b.Fatal(err)
	}
	if p.noise, err = e.NoiseProbs(hardware.Default().ScaledGatesTo(l.phys), nil); err != nil {
		b.Fatal(err)
	}
	if p.target, err = p.st.Reweight(p.noise); err != nil {
		b.Fatal(err)
	}
	if l.boost > 0 {
		p.boost = boostNoise(l.boost, p.noise)
		if p.prop, err = p.st.Reweight(p.boost); err != nil {
			b.Fatal(err)
		}
		alignModels(p.target, p.prop)
	}
	return p
}

// BenchmarkReweight is the per-cell mechanism reweight on the cache-hit
// path: ReweightInto into recycled models, twice (target and boosted
// proposal) on the rare leg.
func BenchmarkReweight(b *testing.B) {
	for _, l := range prepLegs {
		p := prepare(b, l)
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.st.ReweightInto(p.noise, p.target); err != nil {
					b.Fatal(err)
				}
				if p.prop != nil {
					if _, err := p.st.ReweightInto(p.boost, p.prop); err != nil {
						b.Fatal(err)
					}
					alignModels(p.target, p.prop)
				}
			}
		})
	}
}

// BenchmarkGraphWeight is the per-cell edge reweight: GraphStructure.WeightInto
// of the target model into one reused Graph, as the engine's prepare does.
func BenchmarkGraphWeight(b *testing.B) {
	for _, l := range prepLegs {
		p := prepare(b, l)
		b.Run(l.name, func(b *testing.B) {
			var g Graph
			b.ReportAllocs()
			for b.Loop() {
				if err := p.gs.WeightInto(p.target, &g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSamplerReset is the per-cell sampler rebind: BatchSampler.Reset
// on the plain leg, WeightedBatchSampler.Reset on the rare leg.
func BenchmarkSamplerReset(b *testing.B) {
	for _, l := range prepLegs {
		p := prepare(b, l)
		b.Run(l.name, func(b *testing.B) {
			if p.prop == nil {
				bs := p.target.NewBatchSampler()
				b.ReportAllocs()
				for b.Loop() {
					bs.Reset(p.target)
				}
				return
			}
			ws, err := NewWeightedBatchSampler(p.target, p.prop)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := ws.Reset(p.target, p.prop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
