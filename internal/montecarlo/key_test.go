package montecarlo

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

func keyBaseConfig() Config {
	return ThresholdCellConfig(extract.Baseline, 3, 0.008, hardware.Default(),
		300, 7, UF, SweepOptions{})
}

// Equal configs share a key.
func TestCellKeyIdentity(t *testing.T) {
	a, b := keyBaseConfig(), keyBaseConfig()
	if a.CellKey() != b.CellKey() {
		t.Fatalf("identical configs produced distinct keys:\n%s\n%s", a.CellKey(), b.CellKey())
	}
}

// Every result-affecting field must move the key.
func TestCellKeyDiscriminates(t *testing.T) {
	base := keyBaseConfig()
	mutations := map[string]func(*Config){
		"scheme":          func(c *Config) { c.Scheme = extract.CompactInterleaved },
		"distance":        func(c *Config) { c.Distance = 5 },
		"rounds":          func(c *Config) { c.Rounds = 7 },
		"basis":           func(c *Config) { c.Basis = extract.BasisX },
		"trials":          func(c *Config) { c.Trials = 301 },
		"seed":            func(c *Config) { c.Seed = 8 },
		"decoder":         func(c *Config) { c.Decoder = Blossom },
		"chargegap":       func(c *Config) { c.ChargeGapIdle = true },
		"target_failures": func(c *Config) { c.TargetFailures = 50 },
		"rare":            func(c *Config) { c.RareEvent = true },
		"pipeline":        func(c *Config) { c.DisablePipeline = true },
		"hw_pgate2":       func(c *Config) { c.Params.PGate2 *= 1.0000001 },
		"hw_t1cavity":     func(c *Config) { c.Params.T1Cavity *= 2 },
		"hw_cavity_depth": func(c *Config) { c.Params.CavityDepth = 12 },
	}
	seen := map[string]string{base.CellKey(): "base"}
	for name, mutate := range mutations {
		cfg := keyBaseConfig()
		mutate(&cfg)
		k := cfg.CellKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q produced the same key as %q", name, prev)
		}
		seen[k] = name
	}
}

// Spelled-out defaults normalize to the omitted form: Rounds 0 means
// Distance, and a rare-event Boost of 0 means DefaultBoost.
func TestCellKeyNormalizesDefaults(t *testing.T) {
	a := keyBaseConfig()
	b := keyBaseConfig()
	b.Rounds = b.Distance
	if a.CellKey() != b.CellKey() {
		t.Errorf("Rounds=0 and Rounds=Distance produced distinct keys")
	}

	ra, rb := keyBaseConfig(), keyBaseConfig()
	ra.RareEvent, rb.RareEvent = true, true
	ra.Boost, rb.Boost = 0, DefaultBoost
	if ra.CellKey() != rb.CellKey() {
		t.Errorf("Boost=0 and Boost=DefaultBoost produced distinct rare-event keys")
	}
	// Outside rare-event mode Boost is inert and must not split keys.
	na, nb := keyBaseConfig(), keyBaseConfig()
	nb.Boost = 0 // both zero; the field only exists under RareEvent
	if na.CellKey() != nb.CellKey() {
		t.Errorf("non-rare configs with zero boost diverged")
	}
}
