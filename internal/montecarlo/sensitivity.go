package montecarlo

import (
	"fmt"
	"math"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// Panel identifies one sensitivity study of Fig. 12. Each panel varies a
// single hardware parameter while the rest stay at the paper's typical
// operating point (all gate errors 2e-3, cavity depth 10), on
// Compact-Interleaved.
type Panel string

// The seven panels of Fig. 12.
const (
	PanelSCSC              Panel = "sc-sc-error"
	PanelLoadStoreError    Panel = "load-store-error"
	PanelSCModeError       Panel = "sc-mode-error"
	PanelCavityT1          Panel = "cavity-t1"
	PanelTransmonT1        Panel = "transmon-t1"
	PanelLoadStoreDuration Panel = "load-store-duration"
	PanelCavitySize        Panel = "cavity-size"
)

// Panels lists all Fig. 12 panels in paper order.
var Panels = []Panel{
	PanelSCSC, PanelLoadStoreError, PanelSCModeError,
	PanelCavityT1, PanelTransmonT1, PanelLoadStoreDuration, PanelCavitySize,
}

// Apply returns base with the panel's parameter set to value.
func (p Panel) Apply(base hardware.Params, value float64) (hardware.Params, error) {
	out := base
	switch p {
	case PanelSCSC:
		out.PGate2 = value
	case PanelLoadStoreError:
		out.PLoadStore = value
	case PanelSCModeError:
		out.PGateTM = value
	case PanelCavityT1:
		out.T1Cavity = value
	case PanelTransmonT1:
		out.T1Transmon = value
	case PanelLoadStoreDuration:
		out.LoadStoreTime = value
	case PanelCavitySize:
		k := int(math.Round(value))
		if k < 1 {
			return out, fmt.Errorf("montecarlo: cavity size %v invalid", value)
		}
		out.CavityDepth = k
	default:
		return out, fmt.Errorf("montecarlo: unknown panel %q", p)
	}
	return out, out.Validate()
}

// DefaultValues returns the paper's sweep range for the panel.
func (p Panel) DefaultValues(n int) []float64 {
	logRange := func(lo, hi float64) []float64 {
		if n < 2 {
			n = 2
		}
		out := make([]float64, n)
		la, lb := math.Log(lo), math.Log(hi)
		for i := range out {
			out[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
		}
		return out
	}
	switch p {
	case PanelSCSC, PanelLoadStoreError, PanelSCModeError:
		return logRange(1e-5, 1e-2)
	case PanelCavityT1, PanelTransmonT1:
		return logRange(1e-5, 1e-1)
	case PanelLoadStoreDuration:
		return logRange(1e-7, 1e-4)
	default: // cavity size
		var out []float64
		for k := 2; k <= 30; k += 4 {
			out = append(out, float64(k))
		}
		return out
	}
}

// OperatingPoint returns the §VI baseline: every gate error source at 2e-3
// (below all measured thresholds), Table I durations and coherence times,
// cavity depth 10.
func OperatingPoint() hardware.Params {
	return hardware.Default().ScaledTo(2e-3)
}

// SensitivityPoint is one cell of a Fig. 12 panel.
type SensitivityPoint struct {
	Panel    Panel
	Value    float64
	Distance int
	Result   Result
}

// SensitivityCellConfig is the canonical configuration of one Fig. 12
// panel cell, the one definition behind internal/sched's SensitivityJobs:
// Compact-Interleaved (the paper's §VI target, "the most efficient physical
// qubit mapping and subject to a wide variety of errors") at the §VI
// operating point with the panel's parameter set to value, cavity
// serialization gaps included. Panels varying only error probabilities or
// coherence times share one cached structure per distance; panels varying
// durations or cavity size rebuild per value (their circuits differ).
func SensitivityCellConfig(panel Panel, value float64, d int, trials int, seed int64, dec DecoderKind, opts SweepOptions) (Config, error) {
	params, err := panel.Apply(OperatingPoint(), value)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Scheme:          extract.CompactInterleaved,
		Distance:        d,
		Basis:           extract.BasisZ,
		Params:          params,
		Trials:          trials,
		Seed:            seed + int64(d)*104729 + int64(value*1e9),
		Decoder:         dec,
		ChargeGapIdle:   true,
		TargetFailures:  opts.TargetFailures,
		DisablePipeline: opts.DisablePipeline,
		RareEvent:       opts.RareEvent,
		Boost:           opts.Boost,
		TargetRelErr:    opts.TargetRelErr,
	}, nil
}

// GateBudgetPerRound is the gate-induced error charged to one data qubit per
// Compact-Interleaved extraction round: two load/stores, three CNOT-class
// gates, and a share of measurement error.
func GateBudgetPerRound(params hardware.Params) float64 {
	return 2*params.PLoadStore + 3*params.PGate2 + params.PMeasure
}

// CavityCrossoverEstimate returns the smallest cavity size k at which the
// cavity-storage error accumulated over the (k-1)-round wait between a
// patch's correction rounds exceeds the given error budget. This is the
// analysis behind the paper's §VI claim that "cavity decoherence error
// starts dominating after cavity size k ~ 150" and that beyond the
// crossover improving cavity T1 beats growing k. The budget is explicit
// because "dominating" depends on the comparison point: against the
// per-round gate budget the crossover is early; against the much higher
// effective threshold for independent storage (space-like) errors it is
// far later — BenchmarkFigure12_CavitySizeSensitivity prints both
// crossovers (see README, "Reproducing the paper").
// roundDur is the duration of one extraction round.
func CavityCrossoverEstimate(params hardware.Params, roundDur, budget float64) int {
	for k := 2; k < 1000000; k++ {
		wait := float64(k-1) * roundDur
		if params.LambdaCavity(wait) > budget {
			return k
		}
	}
	return -1
}

// StorageErrorThreshold is the approximate threshold of the surface code
// against independent (space-like) storage errors per cycle, the relevant
// comparison point for cavity idling between correction rounds.
const StorageErrorThreshold = 0.03
