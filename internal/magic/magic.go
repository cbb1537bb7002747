// Package magic models T-state distillation throughput and footprint for
// the three protocols compared in §VII: Fast Lattice (Litinski 2019,
// "Magic state distillation: not as costly as you think"), Small Lattice
// (Litinski, "A game of surface codes"), and the paper's VQubits protocol,
// which runs the 15-to-1 Bravyi–Haah circuit on a single patch of transmons
// with six logical qubits virtualized in the attached cavities, using
// transversal CNOTs.
//
// It reproduces Fig. 13 (generation rate with 100 patches; patches needed
// for one T state per timestep) and Table II (transmon/cavity/total qubit
// costs at d=5, k=10), and includes a mechanism-level scheduler that runs
// the 15-to-1 dataflow on the core VLQ machine as a cross-check.
package magic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/layout"
)

// Protocol describes one distillation protocol's steady-state pipeline: one
// block of PatchesPerBlock surface-code patches produces TsPerBatch T states
// every StepsPerBatch timesteps.
type Protocol struct {
	Name            string
	PatchesPerBlock int
	StepsPerBatch   int
	TsPerBatch      int
	// Embedding is the hardware the block runs on: Baseline2D for the
	// lattice protocols, Natural or Compact for VQubits.
	Embedding layout.EmbeddingKind
}

// The paper's §VII protocol constants.
var (
	// FastLattice produces a T state every 6 timesteps from 30 patches.
	FastLattice = Protocol{Name: "Fast [21]", PatchesPerBlock: 30, StepsPerBatch: 6, TsPerBatch: 1, Embedding: layout.Baseline2D}
	// SmallLattice produces a T state every 11 timesteps from 11 patches.
	SmallLattice = Protocol{Name: "Small [12]", PatchesPerBlock: 11, StepsPerBatch: 11, TsPerBatch: 1, Embedding: layout.Baseline2D}
	// VQubitsSolo runs one 15-to-1 circuit on a single patch of transmons
	// with 6 logical qubits in its cavities: 110 timesteps per T state.
	VQubitsSolo = Protocol{Name: "VQubits (solo)", PatchesPerBlock: 1, StepsPerBatch: 110, TsPerBatch: 1, Embedding: layout.Natural}
	// VQubits runs pairs of circuits in lock-step: 99 timesteps per 2 T
	// states on 2 patches.
	VQubits = Protocol{Name: "VQubits", PatchesPerBlock: 2, StepsPerBatch: 99, TsPerBatch: 2, Embedding: layout.Natural}
)

// Protocols lists the Fig. 13 contenders.
var Protocols = []Protocol{FastLattice, SmallLattice, VQubits}

// RatePerPatch is the steady-state T states per timestep per patch.
func (p Protocol) RatePerPatch() float64 {
	return float64(p.TsPerBatch) / float64(p.StepsPerBatch) / float64(p.PatchesPerBlock)
}

// RateWithPatches is the Fig. 13a quantity: T states per timestep when
// budget patches are filled with copies of the protocol (fractional blocks
// count proportionally, as in the paper's normalization).
func (p Protocol) RateWithPatches(budget int) float64 {
	return float64(budget) * p.RatePerPatch()
}

// PatchesForOneTPerStep is the Fig. 13b quantity: the space, in patches,
// needed to produce one T state per timestep.
func (p Protocol) PatchesForOneTPerStep() float64 {
	return 1 / p.RatePerPatch()
}

// Resources returns the hardware cost of one block at distance d with
// cavity depth k — the Table II rows. Lattice protocols occupy a contiguous
// 2D region (2*n*d^2 - 1 transmons); VQubits occupies one patch of the
// memory embedding per block member.
func (p Protocol) Resources(d, k int) layout.Resources {
	if p.Embedding == layout.Baseline2D {
		return layout.Baseline2DPatchesResources(p.PatchesPerBlock, d)
	}
	per := layout.EmbeddingResources(p.Embedding, d, k)
	return layout.Resources{
		Transmons:     per.Transmons * p.PatchesPerBlock,
		Cavities:      per.Cavities * p.PatchesPerBlock,
		CavityDepth:   k,
		LogicalQubits: per.LogicalQubits * p.PatchesPerBlock,
	}
}

// WithEmbedding returns a copy of p running on a different memory
// embedding (used for the VQubits natural-vs-compact rows of Table II).
func (p Protocol) WithEmbedding(kind layout.EmbeddingKind, name string) Protocol {
	p.Embedding = kind
	p.Name = name
	return p
}

// SpeedupOver returns the rate ratio of p over q at equal patch budgets.
func (p Protocol) SpeedupOver(q Protocol) float64 {
	return p.RatePerPatch() / q.RatePerPatch()
}

// Distill15to1Counts is the §VII operation inventory of one 15-to-1 circuit.
type Distill15to1Counts struct {
	Initializations int // 16
	CNOTs           int // 35
	Measurements    int // 15
}

// Circuit15to1Counts returns the paper's stated operation counts.
func Circuit15to1Counts() Distill15to1Counts {
	return Distill15to1Counts{Initializations: 16, CNOTs: 35, Measurements: 15}
}

// ScheduleEstimate is the result of running the 15-to-1 dataflow on the VLQ
// machine.
type ScheduleEstimate struct {
	Timesteps int
	Stats     core.Stats
}

// EstimateVQubitsSchedule executes the 15-to-1 dataflow on a single-stack
// VLQ machine (6 virtualized logical qubits: one accumulating output plus
// five work qubits time-multiplexing the 15 magic-state injections), using
// transversal CNOTs throughout. It demonstrates the mechanism behind the
// VQubitsSolo constant; the paper's 110-step figure additionally charges
// per-step surgery details of the authors' schedule, so the estimate here
// is a lower-bound-flavored cross-check, not a replacement for the
// published constant (BenchmarkClaim_TransversalCNOTSpeedup prints both;
// see README, "Reproducing the paper").
func EstimateVQubitsSchedule(params hardware.Params, d int) (ScheduleEstimate, error) {
	m, err := core.New(core.Config{
		Rows: 1, Cols: 1, Distance: d,
		Embedding: layout.Natural,
		Params:    params,
	})
	if err != nil {
		return ScheduleEstimate{}, err
	}
	counts := Circuit15to1Counts()
	// 16 initializations: the accumulating output plus 15 noisy T states.
	// Each work-qubit allocation below *is* one noisy-T preparation — the
	// five cavity slots are time-multiplexed across three rounds of five.
	out, err := m.Alloc("out")
	if err != nil {
		return ScheduleEstimate{}, err
	}
	tPreps := 0
	work := make([]core.QubitID, 5)
	for i := range work {
		if work[i], err = m.Alloc(fmt.Sprintf("t%d", tPreps)); err != nil {
			return ScheduleEstimate{}, err
		}
		tPreps++
	}
	cnots := 0
	meas := 0
	for round := 0; round < counts.Measurements/len(work); round++ {
		for i := range work {
			// Fold the noisy T into the accumulator (2-3 CNOTs in the real
			// circuit; scheduled here until the budget of 35 is spent).
			for c := 0; c < 3 && cnots < counts.CNOTs; c++ {
				if err := m.CNOTTransversal(work[i], out); err != nil {
					return ScheduleEstimate{}, err
				}
				cnots++
			}
			if err := m.MeasureZ(work[i]); err != nil {
				return ScheduleEstimate{}, err
			}
			meas++
			if tPreps < counts.Measurements {
				if work[i], err = m.Alloc(fmt.Sprintf("t%d", tPreps)); err != nil {
					return ScheduleEstimate{}, err
				}
				tPreps++
			}
		}
	}
	if cnots != counts.CNOTs || meas != counts.Measurements {
		return ScheduleEstimate{}, fmt.Errorf("magic: schedule ran %d CNOTs and %d measurements, want %d and %d",
			cnots, meas, counts.CNOTs, counts.Measurements)
	}
	if got := 1 + tPreps; got != counts.Initializations {
		return ScheduleEstimate{}, fmt.Errorf("magic: scheduler used %d inits, circuit has %d", got, counts.Initializations)
	}
	return ScheduleEstimate{Timesteps: m.Clock(), Stats: m.Stats()}, nil
}
