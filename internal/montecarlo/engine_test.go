package montecarlo

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// The batched engine and the scalar reference engine must agree on the
// logical error rate within combined statistical error.
func TestEngineMatchesReferenceStatistically(t *testing.T) {
	cfg := Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(6e-3),
		Trials:   8000,
		Seed:     23,
	}
	a, err := runPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials != b.Trials {
		t.Fatalf("trial counts differ: %d vs %d", a.Trials, b.Trials)
	}
	diff := math.Abs(a.Rate() - b.Rate())
	sigma := a.StdErr() + b.StdErr()
	if diff > 3*sigma {
		t.Errorf("engine rate %.4f vs reference %.4f differ by more than 3 sigma (%.4f)", a.Rate(), b.Rate(), 3*sigma)
	}
	if a.Failures == 0 || b.Failures == 0 {
		t.Error("expected failures at p=6e-3, d=3")
	}
}

// Early stopping must cut the point short once the target failure count is
// reached, and never exceed the trial cap.
func TestEarlyStop(t *testing.T) {
	cfg := Config{
		Scheme:         extract.Baseline,
		Distance:       3,
		Basis:          extract.BasisZ,
		Params:         hardware.Default().ScaledGatesTo(1.8e-2), // well above threshold
		Trials:         200000,
		Seed:           3,
		TargetFailures: 20,
	}
	res, err := runPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < cfg.TargetFailures {
		t.Errorf("stopped with %d failures, target %d", res.Failures, cfg.TargetFailures)
	}
	if res.Trials >= cfg.Trials {
		t.Errorf("early stop did not trigger: %d trials", res.Trials)
	}
	if res.Rate() < 0.05 {
		t.Errorf("rate %.4f implausibly low above threshold", res.Rate())
	}
}

// Same config, same seed: identical results, whether the structure came
// from the cache or from a fresh engine.
func TestEngineDeterministic(t *testing.T) {
	cfg := Config{
		Scheme:   extract.CompactInterleaved,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(5e-3),
		Trials:   2000,
		Seed:     17,
	}
	en := NewEngine()
	var got [3]Result
	for i, e := range []*Engine{en, en, NewEngine()} {
		var err error
		if got[i], err = e.RunOn(cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] || got[0] != got[2] {
		t.Errorf("results differ across cached and fresh engines:\n%+v\n%+v\n%+v", got[0], got[1], got[2])
	}
}

// A run with a noise class zeroed must not poison the shared structure
// cache for later runs that raise it: the zero pattern is part of the
// structural key, so each pattern gets its own cache entry.
func TestZeroClassRunsDoNotPoisonCache(t *testing.T) {
	en := NewEngine()
	quiet := hardware.Default()
	quiet.PGate2 = 0
	base := Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Trials:   300,
		Seed:     9,
	}
	cfg := base
	cfg.Params = quiet
	if _, err := en.RunOn(cfg, nil); err != nil {
		t.Fatalf("zero-PGate2 run: %v", err)
	}
	cfg = base
	cfg.Params = hardware.Default()
	if _, err := en.RunOn(cfg, nil); err != nil {
		t.Fatalf("default run after zero-PGate2 run on the same engine: %v", err)
	}
	if got := en.CacheStats().Builds; got != 2 {
		t.Errorf("distinct zero patterns should build distinct structures, built %d", got)
	}
}

// A cache entry whose idle noise underflowed to zero (extreme coherence
// times, same structural key as normal parameters) must not wedge the
// engine: later runs with normal parameters fall back to a dedicated build
// and still succeed.
func TestUnderflowedIdleRunsDoNotWedgeEngine(t *testing.T) {
	en := NewEngine()
	frozen := hardware.Default()
	frozen.T1Transmon, frozen.T1Cavity = 1e12, 1e12
	base := Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Trials:   300,
		Seed:     4,
	}
	cfg := base
	cfg.Params = frozen
	if _, err := en.RunOn(cfg, nil); err != nil {
		t.Fatalf("frozen-idle run: %v", err)
	}
	cfg = base
	cfg.Params = hardware.Default()
	res, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatalf("normal run after frozen-idle run on the same engine: %v", err)
	}
	if res.Trials != 300 {
		t.Errorf("fallback run did %d trials", res.Trials)
	}
}

// Reusing one engine across both decoders and bases must keep working (the
// structure cache is keyed by basis and scheme, not by decoder).
func TestEngineMixedConfigs(t *testing.T) {
	en := NewEngine()
	for _, dec := range []DecoderKind{UF, Blossom} {
		for _, basis := range []extract.Basis{extract.BasisZ, extract.BasisX} {
			res, err := en.RunOn(Config{
				Scheme:   extract.Baseline,
				Distance: 3,
				Basis:    basis,
				Params:   hardware.Default().ScaledGatesTo(5e-3),
				Trials:   400,
				Seed:     5,
				Decoder:  dec,
			}, nil)
			if err != nil {
				t.Fatalf("%v/%v: %v", dec, basis, err)
			}
			if res.Rate() > 0.4 {
				t.Errorf("%v/%v: implausible rate %.3f", dec, basis, res.Rate())
			}
		}
	}
	if got := en.CacheStats().Builds; got != 2 {
		t.Errorf("two bases should need two structures, built %d", got)
	}
}

// prepare must resolve a point to exactly the models and graph a fresh
// build at its parameters gives — the target, the boosted and aligned
// proposal of a rare-event point, and the target's decoding graph — on the
// cached path and on the uncached fallback (a cache entry whose idle noise
// underflowed to zero cannot serve normal parameters).
func TestPrepareMatchesFreshBuild(t *testing.T) {
	frozen := hardware.Default()
	frozen.T1Transmon, frozen.T1Cavity = 1e12, 1e12
	cells := []Config{
		{Scheme: extract.CompactInterleaved, Distance: 5, Params: hardware.Default().ScaledGatesTo(6e-3)},
		{Scheme: extract.Baseline, Distance: 5, Params: hardware.Default().ScaledGatesTo(1e-3), RareEvent: true, Boost: 1.5},
	}
	for _, cell := range cells {
		for _, fallback := range []bool{false, true} {
			cfg := cell
			cfg.Basis, cfg.Trials = extract.BasisZ, 64
			if err := cfg.normalize(); err != nil {
				t.Fatal(err)
			}
			en := NewEngine()
			if fallback {
				prime := cfg
				prime.Params = frozen
				if _, err := en.RunOn(prime, nil); err != nil {
					t.Fatal(err)
				}
			}
			var st WorkerState
			model, prop, graph, err := en.prepare(cfg, &st)
			if err != nil {
				t.Fatal(err)
			}
			if builds, want := en.CacheStats().Builds, map[bool]int64{false: 1, true: 2}[fallback]; builds != want {
				t.Errorf("%v fallback=%v: %d structure builds, want %d", cfg.Scheme, fallback, builds, want)
			}

			exp, err := extract.Build(cfg.extractConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, err := dem.Build(exp)
			if err != nil {
				t.Fatal(err)
			}
			// A hand-assembled copy derives its own topology with every
			// mechanism in its own class: a graph reference that shares
			// nothing with the Structure's mechanism or edge classes.
			loose := &dem.Model{NumDets: want.NumDets, Mechs: want.Mechs}
			wantG, err := loose.DecodingGraph()
			if err != nil {
				t.Fatal(err)
			}
			sameModel(t, "target", model, want)
			if !reflect.DeepEqual(graph.Edges, wantG.Edges) || !reflect.DeepEqual(graph.Adj, wantG.Adj) || graph.Stats != wantG.Stats {
				t.Errorf("%v fallback=%v: decoding graph differs from a class-free weighting of a fresh build", cfg.Scheme, fallback)
			}
			if !cfg.RareEvent {
				if prop != nil {
					t.Errorf("%v: plain point got a proposal", cfg.Scheme)
				}
				continue
			}
			if err := exp.Circ.SetOpProbs(boostProbs(cfg.Boost, exp.Circ.OpProbs(nil), nil)); err != nil {
				t.Fatal(err)
			}
			wantProp, err := dem.Build(exp)
			if err != nil {
				t.Fatal(err)
			}
			alignProposal(want, wantProp)
			sameModel(t, "proposal", prop, wantProp)
		}
	}
}

// sameModel requires got and want to carry identical mechanisms.
func sameModel(t *testing.T, name string, got, want *dem.Model) {
	t.Helper()
	if got.NumDets != want.NumDets || len(got.Mechs) != len(want.Mechs) {
		t.Fatalf("%s: %d dets / %d mechanisms, want %d / %d", name, got.NumDets, len(got.Mechs), want.NumDets, len(want.Mechs))
	}
	for i := range got.Mechs {
		g, w := &got.Mechs[i], &want.Mechs[i]
		if g.P != w.P || g.Obs != w.Obs || !slices.Equal(g.Dets, w.Dets) {
			t.Fatalf("%s: mechanism %d is %+v, a fresh build has %+v", name, i, *g, *w)
		}
	}
}
