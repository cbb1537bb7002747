package extract

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/hardware"
	"repro/internal/layout"
)

// Scheme selects one of the five evaluated syndrome-extraction setups.
type Scheme uint8

// The five setups of Fig. 11.
const (
	Baseline Scheme = iota
	NaturalAllAtOnce
	NaturalInterleaved
	CompactAllAtOnce
	CompactInterleaved
)

var schemeNames = [...]string{
	"baseline",
	"natural-all-at-once",
	"natural-interleaved",
	"compact-all-at-once",
	"compact-interleaved",
}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", s)
}

// Schemes lists all five setups in the order of Fig. 11.
var Schemes = []Scheme{Baseline, NaturalAllAtOnce, NaturalInterleaved, CompactAllAtOnce, CompactInterleaved}

// Embedding returns the hardware embedding a scheme runs on.
func (s Scheme) Embedding() layout.EmbeddingKind {
	switch s {
	case Baseline:
		return layout.Baseline2D
	case NaturalAllAtOnce, NaturalInterleaved:
		return layout.Natural
	default:
		return layout.Compact
	}
}

// Basis chooses which memory experiment to run.
type Basis uint8

// Memory experiment bases. BasisZ protects logical |0>/|1> and decodes the
// Z-plaquette (bit-flip) graph; BasisX protects |+>/|-> and decodes the
// X-plaquette graph.
const (
	BasisZ Basis = iota
	BasisX
)

func (b Basis) String() string {
	if b == BasisZ {
		return "Z"
	}
	return "X"
}

// Sector returns the plaquette type whose detectors the experiment decodes.
func (b Basis) Sector() layout.PlaqType {
	if b == BasisZ {
		return layout.PlaqZ
	}
	return layout.PlaqX
}

// Config describes an experiment to build.
type Config struct {
	Scheme   Scheme
	Distance int
	// Rounds of syndrome extraction; 0 means Distance rounds (the paper's
	// convention for threshold experiments).
	Rounds int
	Basis  Basis
	Params hardware.Params
	// ChargeGapIdle controls whether the (k-1)-turn cavity-residency gaps
	// implied by cavity-depth serialization are charged as storage noise.
	// The Fig. 11 threshold study does not include this term (its five
	// setups measure gate/load-store/extraction-structure differences; the
	// thresholds would otherwise be dominated by the fixed storage floor
	// and could not be "comparable to the baseline"); the Fig. 12 cavity
	// T1 / cavity-size sensitivity panels are exactly the study of this
	// term and set it true. See DESIGN.md ("Substitutions").
	ChargeGapIdle bool
}

func (c *Config) rounds() int {
	if c.Rounds > 0 {
		return c.Rounds
	}
	return c.Distance
}

// Detector is one parity check the decoder sees: the XOR of the listed
// measurement records, which is 0 in every noiseless execution.
type Detector struct {
	Meas  []int        // measurement record indices
	Plaq  int          // plaquette id (spatial coordinate)
	Round int          // time coordinate (1-based; rounds+1 = data readout)
	Pos   layout.Coord // ancilla position, for diagnostics
}

// Experiment is a built memory experiment.
type Experiment struct {
	Config     Config
	Code       *layout.Code
	Emb        *layout.Embedding
	Circ       *circuit.Circuit
	Detectors  []Detector
	Observable []int // measurement records whose XOR is the logical readout

	// TransmonSlot maps transmon id -> circuit slot.
	TransmonSlot []int
	// ModeSlot maps data id -> the cavity-mode slot where it rests, or -1
	// for the baseline (data live in transmons).
	ModeSlot []int
	// FinalMeas maps data id -> measurement index of its perfect readout.
	FinalMeas []int

	// recipes are the distinct noise recipes of the circuit's ops, in
	// first-occurrence order, and opRecipe maps each op (global op order)
	// to its recipe. Both are derived once at build time.
	recipes  []opNoise
	opRecipe []int32
}

// Build constructs the experiment for cfg.
func Build(cfg Config) (*Experiment, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.CavityDepth < 1 && cfg.Scheme != Baseline {
		return nil, fmt.Errorf("extract: cavity depth %d invalid for %v", cfg.Params.CavityDepth, cfg.Scheme)
	}
	code, err := layout.NewRotated(cfg.Distance)
	if err != nil {
		return nil, err
	}
	emb, err := layout.NewEmbedding(cfg.Scheme.Embedding(), code)
	if err != nil {
		return nil, err
	}
	e := &Experiment{Config: cfg, Code: code, Emb: emb}
	switch cfg.Scheme {
	case Baseline:
		err = e.buildBaseline()
	case NaturalAllAtOnce, NaturalInterleaved:
		err = e.buildNatural()
	default:
		err = e.buildCompact()
	}
	if err != nil {
		return nil, err
	}
	if err := e.classifyNoise(); err != nil {
		return nil, err
	}
	return e, nil
}

// slotPlan allocates circuit slots: one per transmon, plus one cavity-mode
// slot per data qubit for the memory embeddings (the mode the simulated
// patch occupies; the other k-1 modes belong to other logical qubits and
// enter the model only through the serialization gaps).
func (e *Experiment) slotPlan() (nslots int, locs []circuit.Loc) {
	nt := e.Emb.NumTransmons()
	e.TransmonSlot = make([]int, nt)
	for i := range e.TransmonSlot {
		e.TransmonSlot[i] = i
		locs = append(locs, circuit.SlotTransmon)
	}
	e.ModeSlot = make([]int, e.Code.NumData())
	if e.Config.Scheme == Baseline {
		for i := range e.ModeSlot {
			e.ModeSlot[i] = -1
		}
		return nt, locs
	}
	for d := range e.ModeSlot {
		e.ModeSlot[d] = nt + d
		locs = append(locs, circuit.SlotCavityMode)
	}
	return nt + e.Code.NumData(), locs
}

// idlePolicy returns the Builder.End callback charging storage errors by
// slot location.
func (e *Experiment) idlePolicy() func(slot int, loc circuit.Loc, dur float64) float64 {
	p := e.Config.Params
	return func(_ int, loc circuit.Loc, dur float64) float64 {
		if loc == circuit.SlotTransmon {
			return p.LambdaTransmon(dur)
		}
		return p.LambdaCavity(dur)
	}
}

// recorder accumulates per-plaquette measurement histories.
type recorder struct {
	meas [][]int // plaquette id -> measurement indices in round order
}

func newRecorder(nplaq int) *recorder {
	return &recorder{meas: make([][]int, nplaq)}
}

func (r *recorder) add(plaq, measIdx int) {
	r.meas[plaq] = append(r.meas[plaq], measIdx)
}

// finishDetectors builds the detector list and observable after the circuit
// body is complete. finalMeas maps data id to its perfect-readout index.
func (e *Experiment) finishDetectors(rec *recorder, finalMeas []int) error {
	sector := e.Config.Basis.Sector()
	rounds := e.Config.rounds()
	e.FinalMeas = finalMeas
	for i := range e.Code.Plaquettes {
		p := &e.Code.Plaquettes[i]
		if p.Type != sector {
			continue
		}
		hist := rec.meas[p.ID]
		if len(hist) != rounds {
			return fmt.Errorf("extract: plaquette %d measured %d times, want %d", p.ID, len(hist), rounds)
		}
		// First record vs the deterministic preparation reference.
		e.Detectors = append(e.Detectors, Detector{
			Meas: []int{hist[0]}, Plaq: p.ID, Round: 1, Pos: p.Ancilla,
		})
		for r := 1; r < rounds; r++ {
			e.Detectors = append(e.Detectors, Detector{
				Meas: []int{hist[r-1], hist[r]}, Plaq: p.ID, Round: r + 1, Pos: p.Ancilla,
			})
		}
		// Closure: final record vs the reconstructed plaquette parity from
		// the perfect data readout.
		closure := []int{hist[rounds-1]}
		for _, q := range p.DataIdx {
			if q >= 0 {
				closure = append(closure, finalMeas[q])
			}
		}
		e.Detectors = append(e.Detectors, Detector{
			Meas: closure, Plaq: p.ID, Round: rounds + 1, Pos: p.Ancilla,
		})
	}
	support := e.Code.LogicalZ
	if e.Config.Basis == BasisX {
		support = e.Code.LogicalX
	}
	for _, q := range support {
		e.Observable = append(e.Observable, finalMeas[q])
	}
	return nil
}

// finalReadout emits the perfect closing measurement of all data qubits.
// slotOf maps data id to the slot where the data rests at the end of the
// body. In BasisX the readout is preceded by a perfect Hadamard.
func finalReadout(b *circuit.Builder, basis Basis, ndata int, slotOf func(int) int) []int {
	if basis == BasisX {
		b.Begin(0)
		for q := 0; q < ndata; q++ {
			b.H(slotOf(q), 0)
		}
		b.End(nil)
	}
	final := make([]int, ndata)
	b.Begin(0)
	for q := 0; q < ndata; q++ {
		final[q] = b.MeasureZ(slotOf(q), 0)
	}
	b.End(nil)
	return final
}
