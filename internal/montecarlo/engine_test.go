package montecarlo

import (
	"math"
	"testing"

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
	a, err := Run(cfg)
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
	res, err := Run(cfg)
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

// Same config, same seed, fixed worker count: identical results.
func TestEngineDeterministic(t *testing.T) {
	cfg := Config{
		Scheme:   extract.CompactInterleaved,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(5e-3),
		Trials:   2000,
		Seed:     17,
		Workers:  2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine must agree too: the cache must not change results.
	b, err := NewEngine().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.Trials != b.Trials {
		t.Errorf("results differ across engines: %d/%d vs %d/%d failures/trials",
			a.Failures, a.Trials, b.Failures, b.Trials)
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
	if _, err := en.Run(cfg); err != nil {
		t.Fatalf("zero-PGate2 run: %v", err)
	}
	cfg = base
	cfg.Params = hardware.Default()
	if _, err := en.Run(cfg); err != nil {
		t.Fatalf("default run after zero-PGate2 run on the same engine: %v", err)
	}
	if got := en.StructureBuilds(); got != 2 {
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
	if _, err := en.Run(cfg); err != nil {
		t.Fatalf("frozen-idle run: %v", err)
	}
	cfg = base
	cfg.Params = hardware.Default()
	res, err := en.Run(cfg)
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
			res, err := en.Run(Config{
				Scheme:   extract.Baseline,
				Distance: 3,
				Basis:    basis,
				Params:   hardware.Default().ScaledGatesTo(5e-3),
				Trials:   400,
				Seed:     5,
				Decoder:  dec,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", dec, basis, err)
			}
			if res.Rate() > 0.4 {
				t.Errorf("%v/%v: implausible rate %.3f", dec, basis, res.Rate())
			}
		}
	}
	if got := en.StructureBuilds(); got != 2 {
		t.Errorf("two bases should need two structures, built %d", got)
	}
}
