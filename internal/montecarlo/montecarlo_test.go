package montecarlo

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

func TestRunBasic(t *testing.T) {
	res, err := runPoint(Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledTo(3e-3),
		Trials:   2000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2000 {
		t.Errorf("trials = %d", res.Trials)
	}
	if res.Failures == 0 {
		t.Error("expected some logical failures at p=3e-3, d=3")
	}
	if res.Rate() > 0.3 {
		t.Errorf("rate %.3f implausibly high below threshold", res.Rate())
	}
	if res.StdErr() <= 0 {
		t.Error("standard error must be positive")
	}
}

// runPoint runs one point through RunOn on a fresh engine.
func runPoint(cfg Config) (Result, error) { return NewEngine().RunOn(cfg, nil) }

// An unsharded point has one stream layout: its Result, decoder counters
// included, must not depend on how many CPUs the process may use.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := Config{
		Scheme:   extract.Baseline,
		Distance: 3,
		Basis:    extract.BasisZ,
		Params:   hardware.Default().ScaledTo(5e-3),
		Trials:   1000,
		Seed:     7,
	}
	run := func(procs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := runPoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("GOMAXPROCS=1 gave\n %+v\nGOMAXPROCS=4 gave\n %+v", a, b)
	}
}

// The defining property of a code below threshold: logical error rate drops
// with distance. Above threshold it rises. This is the shape of every Fig. 11
// panel.
func TestSubAndSuperThresholdScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	base := hardware.Default()
	low3, err := runPoint(Config{Scheme: extract.Baseline, Distance: 3, Basis: extract.BasisZ,
		Params: base.ScaledTo(2e-3), Trials: 20000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	low5, err := runPoint(Config{Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ,
		Params: base.ScaledTo(2e-3), Trials: 20000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if low5.Rate() >= low3.Rate() {
		t.Errorf("below threshold d=5 (%.4f) must beat d=3 (%.4f)", low5.Rate(), low3.Rate())
	}
	high3, err := runPoint(Config{Scheme: extract.Baseline, Distance: 3, Basis: extract.BasisZ,
		Params: base.ScaledTo(4e-2), Trials: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	high5, err := runPoint(Config{Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ,
		Params: base.ScaledTo(4e-2), Trials: 4000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if high5.Rate() <= high3.Rate() {
		t.Errorf("above threshold d=5 (%.4f) must lose to d=3 (%.4f)", high5.Rate(), high3.Rate())
	}
}

func TestEstimateThreshold(t *testing.T) {
	// Synthetic curves crossing at p = 1e-2: rate(d, p) = (p/1e-2)^(d/2).
	var pts []SweepPoint
	for _, d := range []int{3, 5} {
		for _, p := range []float64{4e-3, 8e-3, 1.2e-2, 2e-2} {
			r := math.Pow(p/1e-2, float64(d)/2)
			failures := int(r * 1e6)
			pts = append(pts, SweepPoint{Distance: d, Phys: p,
				Result: Result{Counts: Counts{Trials: 1e6, Failures: failures}}})
		}
	}
	th := EstimateThreshold(pts)
	if th < 8e-3 || th > 1.3e-2 {
		t.Errorf("threshold estimate %g not near 1e-2", th)
	}
}

func TestEstimateThresholdNoCrossing(t *testing.T) {
	pts := []SweepPoint{
		{Distance: 3, Phys: 1e-3, Result: Result{Counts: Counts{Trials: 100, Failures: 10}}},
		{Distance: 5, Phys: 1e-3, Result: Result{Counts: Counts{Trials: 100, Failures: 1}}},
	}
	if th := EstimateThreshold(pts); th != 0 {
		t.Errorf("no crossing should give 0, got %g", th)
	}
}

// A tie at a grid rate is a crossing only when a negative gap at a lower
// rate of the same distance pair brackets it. The FOUND case of a
// three-rate sweep: d=3 and d=5 tie at the lowest rate and d=5 lies above
// d=3 at every higher rate, so nothing crosses. With gaps (negative, 0,
// positive) the crossing is the tie rate itself.
func TestEstimateThresholdTies(t *testing.T) {
	rates := []float64{2e-3, 6e-3, 2e-2}
	curves := func(d3, d5 []int) []SweepPoint {
		var pts []SweepPoint
		for i, p := range rates {
			pts = append(pts,
				SweepPoint{Distance: 3, Phys: p, Result: Result{Counts: Counts{Trials: 500, Failures: d3[i]}}},
				SweepPoint{Distance: 5, Phys: p, Result: Result{Counts: Counts{Trials: 500, Failures: d5[i]}}})
		}
		return pts
	}
	if th := EstimateThreshold(curves([]int{7, 40, 150}, []int{7, 55, 260})); th != 0 {
		t.Errorf("tie at the lowest rate with d=5 above everywhere else: threshold %g, want 0", th)
	}
	if th := EstimateThreshold(curves([]int{9, 40, 150}, []int{4, 40, 260})); math.Abs(th-rates[1]) > 1e-12*rates[1] {
		t.Errorf("gaps (negative, 0, positive): threshold %g, want the tie rate %g", th, rates[1])
	}
}

func TestPanelApply(t *testing.T) {
	base := OperatingPoint()
	for _, panel := range Panels {
		vals := panel.DefaultValues(3)
		if len(vals) < 2 {
			t.Errorf("%v: too few default values", panel)
		}
		for _, v := range vals {
			p, err := panel.Apply(base, v)
			if err != nil {
				t.Errorf("%v(%g): %v", panel, v, err)
			}
			if p == base && panel != PanelCavitySize {
				t.Errorf("%v(%g): parameters unchanged", panel, v)
			}
		}
	}
	if _, err := Panel("nope").Apply(base, 1); err == nil {
		t.Error("unknown panel must fail")
	}
	if _, err := PanelCavitySize.Apply(base, 0); err == nil {
		t.Error("cavity size 0 must fail")
	}
}

func TestCavityCrossoverEstimate(t *testing.T) {
	params := OperatingPoint()
	roundDur := params.ResetTime + 2*params.Gate1Time + 4*params.Gate2Time + params.MeasureTime

	kGate := CavityCrossoverEstimate(params, roundDur, GateBudgetPerRound(params))
	kThresh := CavityCrossoverEstimate(params, roundDur, StorageErrorThreshold)
	if kGate < 2 || kThresh <= kGate {
		t.Errorf("crossovers must increase with budget: gate %d, threshold %d", kGate, kThresh)
	}
	// Doubling cavity T1 must push the crossover out roughly 2x.
	better := params
	better.T1Cavity *= 2
	k2 := CavityCrossoverEstimate(better, roundDur, StorageErrorThreshold)
	if k2 < kThresh*3/2 {
		t.Errorf("crossover with 2x T1 (%d) should be ~2x the base (%d)", k2, kThresh)
	}
	if CavityCrossoverEstimate(params, roundDur, 2.0) != -1 {
		t.Error("impossible budget must return -1")
	}
}

func TestDefaultPhysRates(t *testing.T) {
	rates := DefaultPhysRates(7)
	if len(rates) != 7 {
		t.Fatalf("%d rates", len(rates))
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatal("rates must increase")
		}
	}
	if rates[0] > 0.009 || rates[len(rates)-1] < 0.009 {
		t.Error("grid must bracket the paper's threshold band")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := runPoint(Config{Scheme: extract.Baseline, Distance: 3, Params: hardware.Default()}); err == nil {
		t.Error("zero trials must fail")
	}
}
