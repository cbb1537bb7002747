package montecarlo

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// The memory-X experiment is the mirror image of memory-Z; both must produce
// plausible, comparable logical error rates for every scheme.
func TestBothBasesRun(t *testing.T) {
	for _, scheme := range extract.Schemes {
		var rates [2]float64
		for i, basis := range []extract.Basis{extract.BasisZ, extract.BasisX} {
			res, err := Run(Config{
				Scheme:   scheme,
				Distance: 3,
				Basis:    basis,
				Params:   hardware.Default().ScaledGatesTo(4e-3),
				Trials:   2000,
				Seed:     31,
			})
			if err != nil {
				t.Fatalf("%v basis %v: %v", scheme, basis, err)
			}
			rates[i] = res.Rate()
			if res.Rate() <= 0 || res.Rate() > 0.45 {
				t.Errorf("%v basis %v: implausible rate %.4f", scheme, basis, res.Rate())
			}
		}
		// The two bases see different hook orientations but the same error
		// budget: rates must be within a small factor of each other.
		lo, hi := rates[0], rates[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 4*lo+0.02 {
			t.Errorf("%v: basis asymmetry too large: Z=%.4f X=%.4f", scheme, rates[0], rates[1])
		}
	}
}

// Exact matching on small distances should outperform (or at least match)
// union-find — the decoder-quality direction must be right.
func TestBlossomBeatsUFOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	cfg := Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(5e-3),
		Trials:   20000,
		Seed:     71,
	}
	cfg.Decoder = UF
	uf, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Decoder = Blossom
	bl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Allow statistical slack, but Blossom must not be significantly worse.
	if bl.Rate() > uf.Rate()*1.1+0.01 {
		t.Errorf("Blossom rate %.4f worse than UF %.4f", bl.Rate(), uf.Rate())
	}
	t.Logf("UF %.4f vs Blossom %.4f", uf.Rate(), bl.Rate())
}

// Gap charging must hurt: the same configuration with cavity-residency idle
// charged can only have a higher (or equal) logical error rate.
func TestGapChargingMonotone(t *testing.T) {
	base := Config{
		Scheme:   extract.NaturalInterleaved,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledGatesTo(2e-3),
		Trials:   8000,
		Seed:     41,
	}
	off, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.ChargeGapIdle = true
	on, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if on.Rate()+0.01 < off.Rate() {
		t.Errorf("charging gap idle lowered the rate: %.4f -> %.4f", off.Rate(), on.Rate())
	}
}
