package extract

import (
	"testing"

	"repro/internal/hardware"
)

// Reannotate must reproduce, op for op, the noise annotation of a fresh
// build at the target parameters.
func TestReannotateMatchesFreshBuild(t *testing.T) {
	for _, scheme := range Schemes {
		cfg := Config{Scheme: scheme, Distance: 3, Basis: BasisZ, Params: hardware.Default()}
		e, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, phys := range []float64{5e-4, 4e-3, 1.8e-2} {
			params := hardware.Default().ScaledGatesTo(phys)
			if err := e.Reannotate(params); err != nil {
				t.Fatalf("%v p=%g: %v", scheme, phys, err)
			}
			fresh := cfg
			fresh.Params = params
			want, err := Build(fresh)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Circ.OpProbs(nil)
			ref := want.Circ.OpProbs(nil)
			if len(got) != len(ref) {
				t.Fatalf("%v p=%g: %d ops vs %d", scheme, phys, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%v p=%g: op %d probability %g, fresh build has %g", scheme, phys, i, got[i], ref[i])
				}
			}
		}
	}
}

// ScaledTo also rescales coherence times (and with them the idle-error
// probabilities); Reannotate must track that too.
func TestReannotateScaledTo(t *testing.T) {
	cfg := Config{Scheme: NaturalInterleaved, Distance: 3, Basis: BasisZ, Params: hardware.Default(), ChargeGapIdle: true}
	e, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := hardware.Default().ScaledTo(8e-3)
	if err := e.Reannotate(params); err != nil {
		t.Fatal(err)
	}
	fresh := cfg
	fresh.Params = params
	want, err := Build(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, ref := e.Circ.OpProbs(nil), want.Circ.OpProbs(nil)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("op %d probability %g, fresh build has %g", i, got[i], ref[i])
		}
	}
}

// The noise vector has one entry per distinct op recipe, a handful per
// circuit (at most 16 for every scheme at d=11, against tens of thousands
// of ops), and expanding it through OpRecipes gives every op the
// probability a fresh build at those parameters annotates.
func TestNoiseVectorHasOneEntryPerRecipe(t *testing.T) {
	for _, scheme := range Schemes {
		for _, basis := range []Basis{BasisZ, BasisX} {
			cfg := Config{Scheme: scheme, Distance: 11, Basis: basis, Params: hardware.Default()}
			e, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			params := hardware.Default().ScaledGatesTo(4e-3)
			v, err := e.NoiseProbs(params, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(v) != e.NumRecipes() || len(v) > 16 {
				t.Errorf("%v %v: noise vector has %d entries for %d recipes, want one per recipe and at most 16",
					scheme, basis, len(v), e.NumRecipes())
			}
			seen := make(map[opNoise]bool)
			for _, r := range e.recipes {
				if seen[r] {
					t.Errorf("%v %v: recipe %+v interned twice", scheme, basis, r)
				}
				seen[r] = true
			}
			cfg.Params = params
			want, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := want.Circ.OpProbs(nil)
			if len(e.OpRecipes()) != len(ops) {
				t.Fatalf("%v %v: %d op recipes for %d ops", scheme, basis, len(e.OpRecipes()), len(ops))
			}
			for i, r := range e.OpRecipes() {
				if v[r] != ops[i] {
					t.Fatalf("%v %v: op %d gets %g from its recipe, a fresh build has %g", scheme, basis, i, v[r], ops[i])
				}
			}
		}
	}
}

// Parameters that change the circuit structure (durations, cavity depth)
// must be rejected: the annotation recipe no longer applies.
func TestReannotateRejectsStructuralChange(t *testing.T) {
	e, err := Build(Config{Scheme: CompactInterleaved, Distance: 3, Basis: BasisZ, Params: hardware.Default()})
	if err != nil {
		t.Fatal(err)
	}
	longLS := hardware.Default()
	longLS.LoadStoreTime *= 2
	if err := e.Reannotate(longLS); err == nil {
		t.Error("changed load/store duration must be rejected")
	}
	deeper := hardware.Default()
	deeper.CavityDepth++
	if err := e.Reannotate(deeper); err == nil {
		t.Error("changed cavity depth must be rejected")
	}
}

// A noise class that was zero at build time is indistinguishable from
// deliberately perfect ops; raising it later must be rejected rather than
// silently dropped.
func TestReannotateRejectsRaisingZeroClass(t *testing.T) {
	quiet := hardware.Default()
	quiet.PGate2 = 0
	e, err := Build(Config{Scheme: Baseline, Distance: 3, Basis: BasisZ, Params: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reannotate(hardware.Default()); err == nil {
		t.Error("raising a build-time-zero class must be rejected")
	}
	// Keeping the class at zero stays fine.
	other := quiet
	other.PMeasure *= 2
	if err := e.Reannotate(other); err != nil {
		t.Errorf("re-annotation with the class still zero failed: %v", err)
	}
}

// Coherence times so large that the idle error underflows to exactly zero
// must not wedge re-annotation: the same parameters (and any others that
// keep the idle classes at zero) must round-trip cleanly.
func TestReannotateWithUnderflowedIdleNoise(t *testing.T) {
	frozen := hardware.Default()
	frozen.T1Transmon, frozen.T1Cavity = 1e12, 1e12 // lambda(~1e-7 s) == 0
	e, err := Build(Config{Scheme: Baseline, Distance: 3, Basis: BasisZ, Params: frozen})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reannotate(frozen); err != nil {
		t.Errorf("re-annotating with the build parameters failed: %v", err)
	}
	scaled := frozen.ScaledGatesTo(5e-3) // keeps the huge T1s
	if err := e.Reannotate(scaled); err != nil {
		t.Errorf("gate-only rescale with idle still zero failed: %v", err)
	}
	if err := e.Reannotate(hardware.Default()); err == nil {
		t.Error("raising idle noise absent from the build must be rejected")
	}
}

// StructuralKey must separate what it must and merge what it can.
func TestStructuralKey(t *testing.T) {
	base := Config{Scheme: CompactInterleaved, Distance: 5, Basis: BasisZ, Params: hardware.Default()}
	probOnly := base
	probOnly.Params = hardware.Default().ScaledGatesTo(7e-3)
	if base.StructuralKey() != probOnly.StructuralKey() {
		t.Error("probability-only change must keep the structural key")
	}
	coherence := base
	coherence.Params.T1Cavity *= 10
	if base.StructuralKey() != coherence.StructuralKey() {
		t.Error("coherence-time change must keep the structural key")
	}
	rounds := base
	rounds.Rounds = base.Distance
	if base.StructuralKey() != rounds.StructuralKey() {
		t.Error("Rounds=0 and Rounds=Distance must normalize to the same key")
	}
	dur := base
	dur.Params.Gate2Time *= 2
	if base.StructuralKey() == dur.StructuralKey() {
		t.Error("duration change must change the structural key")
	}
	depth := base
	depth.Params.CavityDepth = 4
	if base.StructuralKey() == depth.StructuralKey() {
		t.Error("cavity-depth change must change the structural key")
	}
	zeroed := base
	zeroed.Params.PGate2 = 0
	if base.StructuralKey() == zeroed.StructuralKey() {
		t.Error("zeroing a probability class must change the structural key (its ops lose their faults)")
	}
}

// BenchmarkNoiseProbs is the per-cell noise vector on the cache-hit path,
// on the two d=11 structures the per-scale stages cost most on: a Fig. 11
// tail cell and the deeper rare-event golden cell.
func BenchmarkNoiseProbs(b *testing.B) {
	for _, leg := range []struct {
		name   string
		scheme Scheme
		phys   float64
	}{
		{"ci-d11-p5e-3", CompactInterleaved, 5e-3},
		{"baseline-d11-p1e-3-rare", Baseline, 1e-3},
	} {
		e, err := Build(Config{Scheme: leg.scheme, Distance: 11, Basis: BasisZ, Params: hardware.Default()})
		if err != nil {
			b.Fatal(err)
		}
		params := hardware.Default().ScaledGatesTo(leg.phys)
		b.Run(leg.name, func(b *testing.B) {
			var v []float64
			b.ReportAllocs()
			for b.Loop() {
				if v, err = e.NoiseProbs(params, v[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
