package dem

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/extract"
	"repro/internal/pauli"
	"repro/internal/pframe"
)

// Mechanism is one independent error source: with probability P it flips
// every detector in Dets and, if Obs, the logical observable.
type Mechanism struct {
	Dets []int32
	Obs  bool
	P    float64
}

// BuildStats reports diagnostics from model construction.
type BuildStats struct {
	Faults          int // elementary faults enumerated
	Harmless        int // faults with no detector or observable effect
	Mechanisms      int // merged mechanisms
	MaxFootprint    int // largest detector footprint of any fault
	UndetectableObs int // faults flipping the observable but no detector (must be 0)
	MultiDetFaults  int // faults with footprints larger than 2 (need decomposition)
}

// Model is the detector error model of one experiment at one noise scale.
type Model struct {
	NumDets int
	Mechs   []Mechanism
	Stats   BuildStats

	// st links back to the Structure this model was reweighted from, so
	// DecodingGraph can reuse the hoisted, build-once graph topology. Nil
	// for hand-assembled models, which derive a topology on demand.
	st *Structure
	// classP is ReweightInto's per-class scratch: mechanism class c's
	// folded probability, gathered into Mechs.
	classP []float64
}

// Structure is the immutable, probability-free half of a detector error
// model: the merged mechanism footprints and, per mechanism, the elementary
// fault branches feeding it. Footprints and sources are stored in flat CSR
// form. A Structure is built once per circuit structure and Reweighted for
// every noise scale; it is safe for concurrent use.
type Structure struct {
	NumDets    int
	NumOps     int // ops of the source circuit
	NumRecipes int // noise recipes of the source circuit (length of Reweight's input)

	// mechs[i] is mechanism i's footprint with P zero: the list a
	// reweighted model copies before it gathers probabilities.
	mechs []Mechanism

	// Sources: mechanism i is fed by fault branches with probability
	// probs[srcOp[k]]/srcDiv[k] for k in [srcOff[i], srcOff[i+1]), in fault
	// enumeration order (so Reweight's XOR-fold reproduces a direct build
	// bit for bit).
	srcOp  []int32
	srcDiv []float64
	srcOff []int32

	// Mechanism classes: mechanisms whose ordered (recipe, divisor) source
	// lists are equal fold to the same probability under every noise
	// vector. Mechanism i is in class mechClass[i], numbered by first
	// occurrence; class c folds noise[clsRec[k]]/clsDiv[k] for k in
	// [clsOff[c], clsOff[c+1]), in its mechanisms' source order.
	mechClass []int32
	clsRec    []int32
	clsDiv    []float64
	clsOff    []int32

	Stats BuildStats

	// Hoisted decoding-graph topology (detector decomposition, edge
	// topology, boundary assignment), built on first use and shared by
	// every Model reweighted from this Structure.
	graphOnce sync.Once
	graph     *GraphStructure
	graphErr  error
}

// Graph returns the hoisted decoding-graph topology of this structure,
// building it on the first call. Every noise scale shares the returned
// instance; only edge weights are recomputed per scale (GraphStructure.
// Weight, reached through Model.DecodingGraph). Safe for concurrent use.
func (s *Structure) Graph() (*GraphStructure, error) {
	s.graphOnce.Do(func() {
		s.graph, s.graphErr = buildGraphStructure(s.NumDets, s.NumMechanisms(), s.Footprint, s.mechClass)
	})
	return s.graph, s.graphErr
}

// NumMechanisms returns the merged mechanism count.
func (s *Structure) NumMechanisms() int { return len(s.mechs) }

// NumClasses returns the number of mechanism classes: the folds
// ReweightInto evaluates per noise vector.
func (s *Structure) NumClasses() int { return len(s.clsOff) - 1 }

// Footprint returns mechanism i's detector footprint (shared backing; do
// not modify) and observable mask.
func (s *Structure) Footprint(i int) ([]int32, bool) {
	return s.mechs[i].Dets, s.mechs[i].Obs
}

// FNV-1a parameters of the footprint and class hashes.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvMix folds one word into an FNV-1a style hash.
func fnvMix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// fnv1aFootprint hashes a sorted footprint plus observable mask.
func fnv1aFootprint(dets []int32, obs bool) uint64 {
	h := uint64(fnvOffset)
	for _, d := range dets {
		u := uint32(d)
		for s := 0; s < 32; s += 8 {
			h = fnvMix(h, uint64(u>>s&0xff))
		}
	}
	if obs {
		h ^= 1
	}
	h *= fnvPrime
	return h
}

// BuildStructure derives the experiment's detector error model structure:
// every elementary fault of the circuit (ops with a positive error
// probability), its detector footprint, and the merge of identical
// footprints into mechanisms, recording per-mechanism fault sources instead
// of probabilities. Faults of ops annotated with zero probability are not
// represented; build experiments with every relevant noise class positive
// (hardware.Default is) if they are to be reweighted.
//
// Footprints come from one reverse pass over the circuit, the way Stim
// derives its models. Walking ops backwards, every slot carries two
// sensitivities: the detectors (and observable) that an X, respectively Z,
// component injected on the slot at that point flips downstream. Each
// fault's footprint is read from the sensitivities just after its op acts,
// then the op's transpose carries the sensitivities back past it. The cost
// is linear in ops times footprint size. Mechanisms are numbered by first
// occurrence in forward fault-enumeration order and their sources kept in
// that order, so the result equals a forward per-fault propagation bit for
// bit.
func BuildStructure(e *extract.Experiment) (*Structure, error) {
	c := e.Circ
	recOff, recDets, recObs := recordSets(e)
	rec := func(meas int) sensitivity {
		return sensitivity{recDets[recOff[meas]:recOff[meas+1]], recObs[meas]}
	}

	// sens[2q] is slot q's X sensitivity, sens[2q+1] its Z sensitivity.
	// Every entry owns its backing array; xorInto and the moves below only
	// ever exchange arrays, never share them.
	sens := make([]sensitivity, 2*c.NumSlots)
	var scratch []int32
	xorInto := func(dst *sensitivity, src sensitivity) {
		scratch = xorSorted(scratch[:0], dst.dets, src.dets)
		dst.dets, scratch = scratch, dst.dets
		dst.obs = dst.obs != src.obs
	}
	addPauli := func(acc *sensitivity, q int, p pauli.Pauli) {
		if p.XBit() {
			xorInto(acc, sens[2*q])
		}
		if p.ZBit() {
			xorInto(acc, sens[2*q+1])
		}
	}
	reset := func(q int) {
		sens[2*q] = sensitivity{dets: sens[2*q].dets[:0]}
		sens[2*q+1] = sensitivity{dets: sens[2*q+1].dets[:0]}
	}
	// move carries slot to's sensitivities back to slot from (the op moved
	// from's content into to) and clears to (whatever it held was dropped).
	move := func(from, to int) {
		sens[2*from], sens[2*to] = sens[2*to], sens[2*from]
		sens[2*from+1], sens[2*to+1] = sens[2*to+1], sens[2*from+1]
		reset(to)
	}

	// Provisional mechanisms, numbered as the reverse pass meets them, and
	// one provisional id per fault (-1: harmless) in reverse enumeration
	// order.
	var pDets []int32
	pOff := []int32{0}
	var pObs []bool
	var prov []int32
	buckets := make(map[uint64][]int32) // footprint hash -> provisional ids

	var st BuildStats
	var acc sensitivity
	var faults []pframe.WeightedFault
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		m := &c.Moments[mi]
		for oi := len(m.Ops) - 1; oi >= 0; oi-- {
			op := &m.Ops[oi]
			faults = pframe.FaultsOf(mi, oi, op, faults[:0])
			for fi := len(faults) - 1; fi >= 0; fi-- {
				f := &faults[fi].Fault
				acc = sensitivity{dets: acc.dets[:0]}
				if f.FlipMeas {
					xorInto(&acc, rec(op.MeasIdx))
				}
				addPauli(&acc, op.A, f.PA)
				addPauli(&acc, op.B, f.PB)
				dets, obs := acc.dets, acc.obs
				if len(dets) == 0 {
					if !obs {
						st.Harmless++
						prov = append(prov, -1)
						continue
					}
					st.UndetectableObs++
				}
				st.MaxFootprint = max(st.MaxFootprint, len(dets))
				if len(dets) > 2 {
					st.MultiDetFaults++
				}

				h := fnv1aFootprint(dets, obs)
				id := int32(-1)
				for _, cand := range buckets[h] {
					if pObs[cand] == obs && slices.Equal(pDets[pOff[cand]:pOff[cand+1]], dets) {
						id = cand
						break
					}
				}
				if id < 0 {
					id = int32(len(pObs))
					pDets = append(pDets, dets...)
					pOff = append(pOff, int32(len(pDets)))
					pObs = append(pObs, obs)
					buckets[h] = append(buckets[h], id)
				}
				prov = append(prov, id)
			}

			// Carry the sensitivities back past op: the transpose of
			// pframe's frame update.
			a, b := op.A, op.B
			switch op.Kind {
			case circuit.OpReset:
				reset(a)
			case circuit.OpH:
				sens[2*a], sens[2*a+1] = sens[2*a+1], sens[2*a]
			case circuit.OpCNOT:
				xorInto(&sens[2*a], sens[2*b])     // control X spreads to target X
				xorInto(&sens[2*b+1], sens[2*a+1]) // target Z spreads to control Z
			case circuit.OpLoad:
				move(b, a)
			case circuit.OpStore:
				move(a, b)
			case circuit.OpMeasureZ:
				xorInto(&sens[2*a], rec(op.MeasIdx))
			}
		}
	}
	st.Faults = len(prov)
	if st.UndetectableObs > 0 {
		return nil, fmt.Errorf("dem: %d faults flip the observable without any detector", st.UndetectableObs)
	}
	slices.Reverse(prov)

	// Renumber mechanisms by first forward occurrence and count sources.
	// Every provisional mechanism has at least one fault, so the final
	// count is the provisional one.
	nmech := len(pObs)
	s := &Structure{NumDets: len(e.Detectors), NumOps: c.NumOps(), Stats: st}
	final := slices.Repeat([]int32{-1}, nmech)
	dets := make([]int32, 0, len(pDets)) // one backing for every footprint
	s.mechs = make([]Mechanism, 0, nmech)
	s.srcOff = make([]int32, nmech+1)
	for k, p := range prov {
		if p < 0 {
			continue
		}
		if final[p] < 0 {
			final[p] = int32(len(s.mechs))
			lo := len(dets)
			dets = append(dets, pDets[pOff[p]:pOff[p+1]]...)
			s.mechs = append(s.mechs, Mechanism{Dets: dets[lo:], Obs: pObs[p]})
		}
		prov[k] = final[p]
		s.srcOff[prov[k]+1]++
	}
	for i := 1; i <= nmech; i++ {
		s.srcOff[i] += s.srcOff[i-1]
	}

	// Fill sources in fault enumeration order.
	next := slices.Clone(s.srcOff[:nmech])
	s.srcOp = make([]int32, s.srcOff[nmech])
	s.srcDiv = make([]float64, s.srcOff[nmech])
	k, gid := 0, int32(-1)
	for mi := range c.Moments {
		m := &c.Moments[mi]
		for oi := range m.Ops {
			gid++
			op := &m.Ops[oi]
			faults = pframe.FaultsOf(mi, oi, op, faults[:0])
			div := float64(pframe.BranchCount(op.Kind))
			for range faults {
				if mech := prov[k]; mech >= 0 {
					s.srcOp[next[mech]] = gid
					s.srcDiv[next[mech]] = div
					next[mech]++
				}
				k++
			}
		}
	}
	s.Stats.Mechanisms = s.NumMechanisms()
	opRecipe := e.OpRecipes()
	s.NumRecipes = e.NumRecipes()
	if opRecipe == nil {
		// A hand-assembled experiment has no recipes: each op is its own,
		// and the noise vector is the per-op probability list.
		opRecipe = make([]int32, s.NumOps)
		for i := range opRecipe {
			opRecipe[i] = int32(i)
		}
		s.NumRecipes = s.NumOps
	}
	s.internClasses(opRecipe)
	return s, nil
}

// internClasses groups mechanisms by their ordered (recipe, divisor) source
// lists and stores one source list per class. opRecipe maps a global op
// index to its noise recipe.
func (s *Structure) internClasses(opRecipe []int32) {
	src := func(i int) (lo, hi int32) { return s.srcOff[i], s.srcOff[i+1] }
	var reps []int32
	s.mechClass, reps = groupBy(s.NumMechanisms(), func(i int) uint64 {
		h := uint64(fnvOffset)
		lo, hi := src(i)
		for k := lo; k < hi; k++ {
			h = fnvMix(fnvMix(h, uint64(opRecipe[s.srcOp[k]])), math.Float64bits(s.srcDiv[k]))
		}
		return h
	}, func(a, b int) bool {
		la, ha := src(a)
		lb, hb := src(b)
		if ha-la != hb-lb {
			return false
		}
		for ; la < ha; la, lb = la+1, lb+1 {
			if opRecipe[s.srcOp[la]] != opRecipe[s.srcOp[lb]] || s.srcDiv[la] != s.srcDiv[lb] {
				return false
			}
		}
		return true
	})
	s.clsOff = []int32{0}
	s.clsRec, s.clsDiv = nil, nil
	for _, r := range reps {
		lo, hi := src(int(r))
		for k := lo; k < hi; k++ {
			s.clsRec = append(s.clsRec, opRecipe[s.srcOp[k]])
		}
		s.clsDiv = append(s.clsDiv, s.srcDiv[lo:hi]...)
		s.clsOff = append(s.clsOff, int32(len(s.clsRec)))
	}
}

// groupBy numbers n items by first occurrence of their key: class[i] is
// item i's class and reps[c] the first item of class c. same decides
// whether two items have equal keys, and hash must agree with it.
// Neighbouring items often share a key, so item i tries item i-1's class
// before hashing.
func groupBy(n int, hash func(i int) uint64, same func(a, b int) bool) (class, reps []int32) {
	class = make([]int32, n)
	buckets := make(map[uint64][]int32) // hash -> class ids
	for i := range n {
		if i > 0 && same(int(reps[class[i-1]]), i) {
			class[i] = class[i-1]
			continue
		}
		h := hash(i)
		id := int32(-1)
		for _, c := range buckets[h] {
			if same(int(reps[c]), i) {
				id = c
				break
			}
		}
		if id < 0 {
			id = int32(len(reps))
			reps = append(reps, int32(i))
			buckets[h] = append(buckets[h], id)
		}
		class[i] = id
	}
	return class, reps
}

// sensitivity is a detector set (sorted) plus an observable bit: the
// footprint of a fault, a measurement record, or a Pauli component
// injected at one point of the circuit.
type sensitivity struct {
	dets []int32
	obs  bool
}

// xorSorted appends the symmetric difference of the sorted sets a and b to
// dst.
func xorSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// recordSets returns, in CSR form, each measurement record's footprint: the
// detectors listing it an odd number of times (sorted), and whether the
// observable lists it an odd number of times.
func recordSets(e *extract.Experiment) (off, dets []int32, obs []bool) {
	n := e.Circ.NumMeas
	off = make([]int32, n+1)
	for _, det := range e.Detectors {
		for _, m := range det.Meas {
			off[m+1]++
		}
	}
	for m := 0; m < n; m++ {
		off[m+1] += off[m]
	}
	dets = make([]int32, off[n])
	next := slices.Clone(off[:n])
	for di, det := range e.Detectors {
		for _, m := range det.Meas {
			dets[next[m]] = int32(di)
			next[m]++
		}
	}
	// Detectors were filled in ascending order, so repeats of one detector
	// are adjacent: keep one copy of each odd run, compacting in place.
	w := int32(0)
	for m := 0; m < n; m++ {
		lo, hi := off[m], off[m+1]
		off[m] = w
		for i := lo; i < hi; {
			j := i + 1
			for j < hi && dets[j] == dets[i] {
				j++
			}
			if (j-i)%2 == 1 {
				dets[w] = dets[i]
				w++
			}
			i = j
		}
	}
	off[n] = w

	obs = make([]bool, n)
	for _, m := range e.Observable {
		obs[m] = !obs[m]
	}
	return off, dets[:w], obs
}

// Reweight materializes the Model for one noise vector (one probability
// per recipe, as extract.Experiment.NoiseProbs returns it). Mechanism
// footprints share the Structure's backing arrays; each mechanism class
// XOR-folds its sources in fault enumeration order once, and every
// mechanism takes its class's value, so the result is bit-for-bit identical
// to a direct Build at the same annotation.
func (s *Structure) Reweight(noise []float64) (*Model, error) {
	return s.ReweightInto(noise, nil)
}

// ReweightInto is Reweight recycling model m (from an earlier reweight of
// any structure) instead of allocating: a sweep worker walking the noise
// scales of a row reuses one Model's backing across every cell. m may be
// nil or must be exclusively owned by the caller; the returned model is m
// when shapes allow reuse. The cost is one fold per mechanism class plus
// one gather per mechanism; a model last reweighted from s keeps its
// footprints, and only its probabilities are rewritten.
func (s *Structure) ReweightInto(noise []float64, m *Model) (*Model, error) {
	if len(noise) != s.NumRecipes {
		return nil, fmt.Errorf("dem: Reweight got %d recipe probabilities, want %d", len(noise), s.NumRecipes)
	}
	shaped := m != nil && m.st == s && len(m.Mechs) == s.NumMechanisms()
	m = s.shapeModel(m)
	nc := s.NumClasses()
	if cap(m.classP) >= nc {
		m.classP = m.classP[:nc]
	} else {
		m.classP = make([]float64, nc)
	}
	for c := 0; c < nc; c++ {
		p := 0.0
		for k := s.clsOff[c]; k < s.clsOff[c+1]; k++ {
			p = xorProb(p, noise[s.clsRec[k]]/s.clsDiv[k])
		}
		m.classP[c] = p
	}
	if !shaped {
		copy(m.Mechs, s.mechs)
	}
	for i, c := range s.mechClass {
		m.Mechs[i].P = m.classP[c]
	}
	return m, nil
}

// shapeModel returns m (allocated when nil) bound to s, with one mechanism
// slot per merged mechanism.
func (s *Structure) shapeModel(m *Model) *Model {
	n := s.NumMechanisms()
	if m == nil {
		m = &Model{}
	}
	m.NumDets, m.Stats, m.st = s.NumDets, s.Stats, s
	if cap(m.Mechs) >= n {
		m.Mechs = m.Mechs[:n]
	} else {
		m.Mechs = make([]Mechanism, n)
	}
	return m
}

// Build constructs the model for experiment e at its current noise
// annotation. It is the independent reference for Reweight: every
// mechanism XOR-folds its own sources from the circuit's per-op
// probabilities, without recipes or classes.
func Build(e *extract.Experiment) (*Model, error) {
	s, err := BuildStructure(e)
	if err != nil {
		return nil, err
	}
	return s.foldOps(e.Circ.OpProbs(make([]float64, 0, e.Circ.NumOps()))), nil
}

// foldOps materializes the Model for per-op probabilities (global op
// order), XOR-folding every mechanism's own sources.
func (s *Structure) foldOps(probs []float64) *Model {
	m := s.shapeModel(nil)
	copy(m.Mechs, s.mechs)
	for i := range m.Mechs {
		p := 0.0
		for k := s.srcOff[i]; k < s.srcOff[i+1]; k++ {
			p = xorProb(p, probs[s.srcOp[k]]/s.srcDiv[k])
		}
		m.Mechs[i].P = p
	}
	return m
}

// xorProb combines two independent flip sources into the probability that an
// odd number of them fires.
func xorProb(a, b float64) float64 { return a*(1-b) + b*(1-a) }

// Sampler draws detector-event samples directly from the model, one shot
// per call. Not safe for concurrent use; create one per goroutine. For bulk
// sampling prefer BatchSampler.
type Sampler struct {
	m      *Model
	parity []bool
	events []int
}

// NewSampler returns a sampler over the model.
func (m *Model) NewSampler() *Sampler {
	return &Sampler{m: m, parity: make([]bool, m.NumDets)}
}

// Sample draws one shot: the list of fired detectors (sorted, reused buffer)
// and whether the logical observable flipped.
func (s *Sampler) Sample(rng *rand.Rand) (events []int, obs bool) {
	for i := range s.parity {
		s.parity[i] = false
	}
	for i := range s.m.Mechs {
		mech := &s.m.Mechs[i]
		if rng.Float64() >= mech.P {
			continue
		}
		for _, d := range mech.Dets {
			s.parity[d] = !s.parity[d]
		}
		if mech.Obs {
			obs = !obs
		}
	}
	s.events = s.events[:0]
	for d, v := range s.parity {
		if v {
			s.events = append(s.events, d)
		}
	}
	return s.events, obs
}

// ExpectedEventRate returns the mean number of detection events per shot
// (sum of footprint sizes weighted by probability) — a cheap cross-check
// against empirical sampling.
func (m *Model) ExpectedEventRate() float64 {
	t := 0.0
	for i := range m.Mechs {
		// Each mechanism flips each of its detectors with probability P;
		// to first order the expected count adds P per detector touched.
		t += m.Mechs[i].P * float64(len(m.Mechs[i].Dets))
	}
	return t
}

// clampProb keeps probabilities in the open interval for weight computation.
func clampProb(p float64) float64 {
	const lo, hi = 1e-15, 0.5 - 1e-12
	return math.Min(math.Max(p, lo), hi)
}

// WeightOf converts a probability to a matching weight ln((1-p)/p).
func WeightOf(p float64) float64 {
	p = clampProb(p)
	return math.Log((1 - p) / p)
}
