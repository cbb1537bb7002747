package decoder

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
)

// BenchmarkUnionFindDecode times union-find on pre-sampled non-empty
// circuit-level shots, one shot per op. The sparse legs sit in the regime
// of the serve-mix (d=3, p=1e-3) and rare-deep (d=9 and d=11, p=1.5e-3)
// benchmark workloads, where shots carry a handful of events; the dense
// legs are the tail of the Fig. 11 row (Compact-Interleaved d=9 and d=11
// near and above threshold), where a shot carries 100+ events and grows
// for dozens of rounds. Besides ns/shot it reports the growth-loop work
// counters per shot: edge_scans/shot (candidate-edge slack scans) and
// rounds/shot. Run it at -benchtime 256x or more so the counters average
// a leg's whole shot set rather than its first shot.
func BenchmarkUnionFindDecode(b *testing.B) {
	legs := []struct {
		name   string
		scheme extract.Scheme
		d      int
		p      float64
	}{
		{"sparse/baseline-d3-p1e-3", extract.Baseline, 3, 1e-3},
		{"sparse/baseline-d9-p1.5e-3", extract.Baseline, 9, 1.5e-3},
		{"sparse/baseline-d11-p1.5e-3", extract.Baseline, 11, 1.5e-3},
		{"dense/compact-d9-p1.26e-2", extract.CompactInterleaved, 9, 1.26e-2},
		{"dense/compact-d11-p2e-2", extract.CompactInterleaved, 11, 2e-2},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			m, g := circuitGraph(b, leg.scheme, leg.d, leg.p)
			shots := nonEmptyShots(m, 256, uint64(leg.d))
			uf := NewUnionFind(g)
			// One pass over the shots grows every reusable buffer, the
			// candidate-list pool included, to the largest shot's need.
			for _, ev := range shots {
				if _, err := uf.Decode(ev); err != nil {
					b.Fatal(err)
				}
			}
			before := uf.DecoderStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := uf.Decode(shots[i%len(shots)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := uf.DecoderStats().Sub(before)
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/shot")
			b.ReportMetric(float64(st.UFEdgeScans)/n, "edge_scans/shot")
			b.ReportMetric(float64(st.UFGrowthRounds)/n, "rounds/shot")
		})
	}
}

// nonEmptyShots samples count shots of m that fired at least one detector,
// from a fixed seed.
func nonEmptyShots(m *dem.Model, count int, seed uint64) [][]int {
	bs := m.NewBatchSampler()
	rng := rand.New(rand.NewPCG(seed, 7))
	var out [][]int
	for len(out) < count {
		bs.Sample(rng)
		for s := 0; s < dem.BatchShots && len(out) < count; s++ {
			if ev, _ := bs.Shot(s); len(ev) > 0 {
				out = append(out, append([]int(nil), ev...))
			}
		}
	}
	return out
}
