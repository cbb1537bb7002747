package vlq

import (
	"runtime"
	"testing"
)

// End-to-end smoke test of the public facade: the full pipeline from code
// construction to a decoded logical error rate, plus the headline claims.
func TestPublicAPIEndToEnd(t *testing.T) {
	code, err := NewRotatedCode(3)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := NewEmbedding(CompactEmbedding, code)
	if err != nil {
		t.Fatal(err)
	}
	if emb.NumTransmons() != 11 || emb.NumCavities() != 9 {
		t.Fatalf("headline claim broken: %d transmons / %d cavities", emb.NumTransmons(), emb.NumCavities())
	}

	exp, err := BuildExperiment(ExperimentConfig{
		Scheme:   CompactInterleaved,
		Distance: 3,
		Basis:    BasisZ,
		Params:   DefaultHardware(),
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildDetectorModel(exp)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := model.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, dec := range []Decoder{NewUnionFindDecoder(graph), NewBlossomDecoder(graph)} {
		if obs, err := dec.Decode(nil); err != nil || obs {
			t.Fatalf("%s: trivial decode failed", dec.Name())
		}
	}

	res, err := RunMonteCarlo(MonteCarloConfig{
		Scheme:   CompactInterleaved,
		Distance: 3,
		Basis:    BasisZ,
		Params:   DefaultHardware().ScaledGatesTo(2e-3),
		Trials:   1500,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() <= 0 || res.Rate() > 0.5 {
		t.Fatalf("implausible logical error rate %.4f", res.Rate())
	}
}

func TestPublicMachineAndMagic(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Rows: 1, Cols: 1, Distance: 3,
		Embedding: CompactEmbedding,
		Params:    DefaultHardware(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CNOT(a, b); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TransversalCNOTs != 1 {
		t.Error("co-located CNOT should use the transversal path")
	}

	if r := VQubits.RateWithPatches(100) / SmallLattice.RateWithPatches(100); r < 1.2 || r > 1.25 {
		t.Errorf("Fig 13 speedup %v, want ~1.22", r)
	}

	rep, err := VerifyTransversalCNOT(3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllOK {
		t.Error("transversal CNOT tomography failed through facade")
	}
}

// The public sweeps run every cell as one RunOn stream, so their points
// depend on the seed alone, not on how many CPUs the process may use.
func TestThresholdSweepIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) []SweepPoint {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pts, err := ThresholdSweep(Baseline, []int{3}, []float64{8e-3}, DefaultHardware(), 4096, 7, DecodeUnionFind)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	one, two := run(1), run(2)
	if len(one) != len(two) {
		t.Fatalf("%d points at GOMAXPROCS=1, %d at 2", len(one), len(two))
	}
	for i := range one {
		if one[i].Result != two[i].Result {
			t.Errorf("point %d: GOMAXPROCS=1 gave\n %+v\nGOMAXPROCS=2 gave\n %+v", i, one[i].Result, two[i].Result)
		}
	}
}
