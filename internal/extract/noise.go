package extract

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/hardware"
)

// noiseClass identifies which hardware parameter drives an op's error
// probability. It is the bridge that lets an experiment's circuit be built
// once (structure) and re-annotated cheaply for every noise scale of a sweep.
type noiseClass uint8

const (
	noiseNone         noiseClass = iota // deliberately perfect op (built with P == 0)
	noiseReset                          // Params.PReset
	noiseGate1                          // Params.PGate1
	noiseGate2                          // Params.PGate2
	noiseGateTM                         // Params.PGateTM
	noiseLoadStore                      // Params.PLoadStore
	noiseMeasure                        // Params.PMeasure
	noiseIdleTransmon                   // Params.LambdaTransmon(moment duration)
	noiseIdleCavity                     // Params.LambdaCavity(moment duration)
)

// opNoise is an op's annotation recipe: the driving class plus the moment
// duration (needed only by the idle classes). zeroed marks ops whose class
// probability was zero at build time: they carry no faults in any model
// structure derived from the build, so raising their class later is invalid.
// Ops with equal recipes carry equal probabilities under every parameter
// set, so the build interns them: a circuit of tens of thousands of ops has
// a handful of recipes (at most 16 for every scheme at d=11), and
// NoiseProbs evaluates one probability per recipe.
type opNoise struct {
	class  noiseClass
	dur    float64
	zeroed bool
}

// classProb evaluates a noise class against a parameter set.
func classProb(p *hardware.Params, n opNoise) float64 {
	switch n.class {
	case noiseReset:
		return p.PReset
	case noiseGate1:
		return p.PGate1
	case noiseGate2:
		return p.PGate2
	case noiseGateTM:
		return p.PGateTM
	case noiseLoadStore:
		return p.PLoadStore
	case noiseMeasure:
		return p.PMeasure
	case noiseIdleTransmon:
		return p.LambdaTransmon(n.dur)
	case noiseIdleCavity:
		return p.LambdaCavity(n.dur)
	default:
		return 0
	}
}

// classOf derives the noise class of one op from its kind and slot
// locations. CNOTs between a transmon and a cavity mode are the
// transmon-mode gates of the Compact schedule; all other CNOTs are SC-SC.
func classOf(c *circuit.Circuit, op *circuit.Op, dur float64) opNoise {
	switch op.Kind {
	case circuit.OpReset:
		return opNoise{class: noiseReset}
	case circuit.OpH:
		return opNoise{class: noiseGate1}
	case circuit.OpCNOT:
		if c.SlotLoc[op.A] == circuit.SlotTransmon && c.SlotLoc[op.B] == circuit.SlotTransmon {
			return opNoise{class: noiseGate2}
		}
		return opNoise{class: noiseGateTM}
	case circuit.OpLoad, circuit.OpStore:
		return opNoise{class: noiseLoadStore}
	case circuit.OpMeasureZ:
		return opNoise{class: noiseMeasure}
	default: // OpIdle
		if c.SlotLoc[op.A] == circuit.SlotTransmon {
			return opNoise{class: noiseIdleTransmon, dur: dur}
		}
		return opNoise{class: noiseIdleCavity, dur: dur}
	}
}

// classifyNoise derives the annotation recipe of every op of the built
// circuit, in global op order, and interns the recipes. Ops whose
// probability is zero while their class probability under the build
// parameters is positive are deliberately perfect (e.g. the closing data
// readout) and stay perfect under any re-annotation. A class whose build
// probability is zero is ambiguous — a perfect op cannot be told apart from
// a noisy op of a zero-probability class — so re-annotating it to a nonzero
// value is rejected later.
func (e *Experiment) classifyNoise() error {
	p := e.Config.Params
	c := e.Circ
	ids := make(map[opNoise]int32)
	e.recipes = e.recipes[:0]
	e.opRecipe = make([]int32, 0, c.NumOps())
	id := int32(-1) // the last op's recipe; neighbouring ops usually share it
	for mi := range c.Moments {
		m := &c.Moments[mi]
		for oi := range m.Ops {
			op := &m.Ops[oi]
			n := classOf(c, op, m.Duration)
			want := classProb(&p, n)
			switch {
			case op.P == want && want > 0:
				// Normal noisy op; the class drives re-annotation.
			case op.P == 0 && want == 0:
				// The whole class is zero here: indistinguishable from a
				// deliberately perfect op, and no faults were recorded.
				n.zeroed = true
			case op.P == 0:
				n = opNoise{class: noiseNone} // deliberately perfect op
			default:
				return fmt.Errorf("extract: op %v has probability %g, class %d expects %g",
					op.Kind, op.P, n.class, want)
			}
			if id < 0 || e.recipes[id] != n {
				var ok bool
				if id, ok = ids[n]; !ok {
					id = int32(len(e.recipes))
					ids[n] = id
					e.recipes = append(e.recipes, n)
				}
			}
			e.opRecipe = append(e.opRecipe, id)
		}
	}
	return nil
}

// NumRecipes returns the number of distinct noise recipes among the
// circuit's ops: the length of the noise vector NoiseProbs returns.
func (e *Experiment) NumRecipes() int { return len(e.recipes) }

// OpRecipes maps each op of the circuit, in global op order, to its recipe:
// op i carries probability NoiseProbs(params)[OpRecipes()[i]]. The slice is
// shared; do not modify it.
func (e *Experiment) OpRecipes() []int32 { return e.opRecipe }

// StructuralKey identifies the circuit structure shared by every build of a
// configuration whose parameters differ only in error probabilities and
// coherence times. Two configs with equal keys build moment-for-moment,
// op-for-op identical circuits (up to noise annotation), so a detector error
// model Structure derived from one can be Reweighted for the other. This is
// the cache key of the Monte-Carlo engine's structure cache.
type StructuralKey struct {
	Scheme        Scheme
	Distance      int
	Rounds        int // normalized: 0 => Distance
	Basis         Basis
	ChargeGapIdle bool

	// Structural hardware parameters: everything that shapes moments,
	// durations, or slot counts (as opposed to probabilities).
	Gate2Time     float64
	Gate1Time     float64
	GateTMTime    float64
	LoadStoreTime float64
	MeasureTime   float64
	ResetTime     float64
	CavityDepth   int

	// ZeroProbs marks probability classes that are zero at build time.
	// Zero-probability ops carry no faults, so a detector-error-model
	// Structure built with a class at zero cannot serve parameters that
	// raise it: the zero pattern is part of the structure.
	ZeroProbs uint8
}

// StructuralKey returns the structure cache key of the configuration.
func (c Config) StructuralKey() StructuralKey {
	var zero uint8
	for i, p := range [...]float64{
		c.Params.PGate2, c.Params.PGate1, c.Params.PGateTM,
		c.Params.PLoadStore, c.Params.PMeasure, c.Params.PReset,
	} {
		if p == 0 {
			zero |= 1 << i
		}
	}
	return StructuralKey{
		Scheme:        c.Scheme,
		Distance:      c.Distance,
		Rounds:        c.rounds(),
		Basis:         c.Basis,
		ChargeGapIdle: c.ChargeGapIdle,
		Gate2Time:     c.Params.Gate2Time,
		Gate1Time:     c.Params.Gate1Time,
		GateTMTime:    c.Params.GateTMTime,
		LoadStoreTime: c.Params.LoadStoreTime,
		MeasureTime:   c.Params.MeasureTime,
		ResetTime:     c.Params.ResetTime,
		CavityDepth:   c.Params.CavityDepth,
		ZeroProbs:     zero,
	}
}

// checkStructural rejects a re-annotation that would require a different
// circuit structure (changed durations, cavity depth, or the pattern of
// zeroed probability classes).
func (e *Experiment) checkStructural(params hardware.Params) error {
	cfg := e.Config
	cfg.Params = params
	if got, want := cfg.StructuralKey(), e.Config.StructuralKey(); got != want {
		return fmt.Errorf("extract: parameters change the circuit structure (durations, cavity depth, or zeroed noise classes); rebuild the experiment")
	}
	return nil
}

// NoiseProbs computes the noise vector for params: one error probability
// per recipe (see OpRecipes), appended to dst, without rebuilding anything.
// Op i of a circuit rebuilt with params would carry probability
// v[OpRecipes()[i]]. Each recipe's probability is evaluated once, so the
// cost is O(recipes), not O(ops). It fails if params imply a structurally
// different circuit, or if a noise class that was zero at build time (and
// therefore indistinguishable from deliberately perfect ops) is being
// raised to a nonzero value.
func (e *Experiment) NoiseProbs(params hardware.Params, dst []float64) ([]float64, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := e.checkStructural(params); err != nil {
		return nil, err
	}
	for i := range e.recipes {
		n := &e.recipes[i]
		p := classProb(&params, *n)
		if n.zeroed && p != 0 {
			// This recipe's class was zero at build time, so no faults for
			// its ops exist in any structure derived from the build;
			// silently dropping its new noise would skew results.
			return nil, fmt.Errorf("extract: noise class %d was zero at build time (its ops carry no faults); rebuild the experiment to raise it", n.class)
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// Reannotate rewrites the circuit's noise annotation in place for params,
// keeping the structure untouched. It is the cheap alternative to
// extract.Build when only error probabilities or coherence times change —
// e.g. across the physical-rate axis of a threshold sweep.
func (e *Experiment) Reannotate(params hardware.Params) error {
	v, err := e.NoiseProbs(params, make([]float64, 0, len(e.recipes)))
	if err != nil {
		return err
	}
	ps := make([]float64, len(e.opRecipe))
	for i, r := range e.opRecipe {
		ps[i] = v[r]
	}
	if err := e.Circ.SetOpProbs(ps); err != nil {
		return err
	}
	e.Config.Params = params
	return nil
}
