package montecarlo_test

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// The grid tests run through internal/sched, the one sweep runner; an
// external test package may import it without a cycle.

// One structure build must serve every physical rate of a sweep row; only a
// new distance (or other structural change) may add builds.
func TestSweepReusesStructures(t *testing.T) {
	en := montecarlo.NewEngine()
	s := sched.New(en, sched.Options{Jobs: 1})
	rates := []float64{2e-3, 4e-3, 8e-3, 1.6e-2}
	if _, err := s.ThresholdSweep(extract.Baseline, []int{3}, rates, hardware.Default(), 200, 1, montecarlo.UF, montecarlo.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := en.CacheStats().Builds; got != 1 {
		t.Errorf("one distance x %d rates built %d structures, want 1", len(rates), got)
	}
	if _, err := s.ThresholdSweep(extract.Baseline, []int{3, 5}, rates, hardware.Default(), 200, 1, montecarlo.UF, montecarlo.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := en.CacheStats().Builds; got != 2 {
		t.Errorf("adding distance 5 should add exactly one build, have %d total", got)
	}
}

// Sensitivity panels that only move probabilities or coherence times share
// one structure per distance; duration-moving panels rebuild per value.
func TestSensitivityStructureReuse(t *testing.T) {
	en := montecarlo.NewEngine()
	if _, err := sched.New(en, sched.Options{Jobs: 1}).SensitivitySweep(montecarlo.PanelCavityT1, []float64{1e-4, 1e-3, 1e-2}, []int{3}, 100, 1, montecarlo.UF, montecarlo.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := en.CacheStats().Builds; got != 1 {
		t.Errorf("cavity-T1 panel built %d structures, want 1", got)
	}
	en2 := montecarlo.NewEngine()
	if _, err := sched.New(en2, sched.Options{Jobs: 1}).SensitivitySweep(montecarlo.PanelLoadStoreDuration, []float64{1e-7, 1e-6}, []int{3}, 100, 1, montecarlo.UF, montecarlo.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := en2.CacheStats().Builds; got != 2 {
		t.Errorf("load-store-duration panel built %d structures, want 2 (one per value)", got)
	}
}

func TestSensitivitySweepSmoke(t *testing.T) {
	pts, err := sched.New(nil, sched.Options{}).SensitivitySweep(montecarlo.PanelSCSC, []float64{1e-4, 5e-3}, []int{3}, 400, 3, montecarlo.UF, montecarlo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// Higher SC-SC error must not give a (significantly) lower logical rate.
	if pts[1].Result.Rate()+0.02 < pts[0].Result.Rate() {
		t.Errorf("rate at p=5e-3 (%.4f) below rate at p=1e-4 (%.4f)", pts[1].Result.Rate(), pts[0].Result.Rate())
	}
}
