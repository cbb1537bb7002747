package decoder

import (
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

func batchFixture(t testing.TB, phys float64) (*dem.Model, *dem.Graph) {
	t.Helper()
	e, err := extract.Build(extract.Config{
		Scheme: extract.CompactInterleaved, Distance: 3, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(phys),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dem.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

func fillBatch(t testing.TB, m *dem.Model, b *Batch, seed byte) {
	t.Helper()
	bs := m.NewBatchSampler()
	rng := rand.New(rand.NewChaCha8([32]byte{seed}))
	bs.Sample(rng)
	b.Reset()
	for s := 0; s < dem.BatchShots; s++ {
		ev, _ := bs.Shot(s)
		b.Add(ev)
	}
}

// DecodeBatch must agree shot for shot with Decode.
func TestDecodeBatchMatchesScalarDecode(t *testing.T) {
	m, g := batchFixture(t, 6e-3)
	for _, dec := range []BatchDecoder{NewUnionFind(g), NewBlossom(g)} {
		var b Batch
		out := make([]bool, dem.BatchShots)
		for trial := byte(0); trial < 20; trial++ {
			fillBatch(t, m, &b, trial)
			if err := dec.DecodeBatch(&b, out); err != nil {
				t.Fatalf("%s: %v", dec.Name(), err)
			}
			for i := 0; i < b.Len(); i++ {
				want, err := dec.Decode(b.Shot(i))
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("%s: shot %d batch says %v, scalar says %v", dec.Name(), i, out[i], want)
				}
			}
		}
	}
}

// The batch path must be allocation-free in steady state — the acceptance
// bar for the Monte-Carlo hot loop.
func TestDecodeBatchZeroAllocs(t *testing.T) {
	m, g := batchFixture(t, 6e-3)
	for _, dec := range []BatchDecoder{NewUnionFind(g), NewBlossom(g)} {
		var b Batch
		out := make([]bool, dem.BatchShots)
		// Warm up buffers on a spread of batches.
		for trial := byte(0); trial < 10; trial++ {
			fillBatch(t, m, &b, trial)
			if err := dec.DecodeBatch(&b, out); err != nil {
				t.Fatal(err)
			}
		}
		fillBatch(t, m, &b, 42)
		allocs := testing.AllocsPerRun(50, func() {
			if err := dec.DecodeBatch(&b, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodeBatch allocates %.1f times per batch in steady state", dec.Name(), allocs)
		}
	}
}

// Union-find's growth loops touch one node record and one edge record per
// lookup; both must stay within their cache-line budgets, so per-cluster
// bookkeeping cannot quietly widen the sparse-shot path.
func TestUnionFindRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(ufNode{}); n > 72 {
		t.Errorf("ufNode is %d bytes, budget 72", n)
	}
	if n := unsafe.Sizeof(ufEdge{}); n > 40 {
		t.Errorf("ufEdge is %d bytes, budget 40", n)
	}
}
