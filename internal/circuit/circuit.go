// Package circuit provides the gate-level intermediate representation shared
// by the syndrome-extraction generators (internal/extract), the Pauli-frame
// sampler (internal/pframe), and the detector-error-model builder
// (internal/dem).
//
// A Circuit is a sequence of Moments. Each Moment has a wall-clock duration
// and a set of operations on disjoint qubit slots. Slots are fixed physical
// sites — transmons or cavity modes — and carry a location tag so idle
// (storage) noise can use the right coherence time. Noise is explicit: every
// op carries its own Pauli error probability, and idle channels are
// materialized as OpIdle operations when a moment is sealed, based on which
// occupied slots the moment left untouched. This makes the circuit the
// single source of truth for both Monte-Carlo sampling and fault
// enumeration.
package circuit

import "fmt"

// Loc tags what kind of physical site a slot is.
type Loc uint8

// Slot locations.
const (
	SlotTransmon Loc = iota
	SlotCavityMode
)

func (l Loc) String() string {
	if l == SlotTransmon {
		return "transmon"
	}
	return "cavity-mode"
}

// OpKind enumerates the operations of the syndrome-extraction instruction
// set.
type OpKind uint8

// Operation kinds. Load and Store are the iSWAP-mediated transfers between
// a transmon and one mode of its attached cavity (§II-C); their noise is a
// two-qubit depolarizing channel on the (transmon, mode) pair.
const (
	OpReset    OpKind = iota // A: reset transmon to |0> (X error with prob P after)
	OpH                      // A: Hadamard (1q depolarizing P)
	OpCNOT                   // A=control, B=target (2q depolarizing P)
	OpLoad                   // A=transmon, B=cavity mode; mode -> transmon
	OpStore                  // A=transmon, B=cavity mode; transmon -> mode
	OpMeasureZ               // A: Z-basis measurement, record flip prob P
	OpIdle                   // A: storage error (1q uniform-Pauli channel, prob P)
)

func (k OpKind) String() string {
	switch k {
	case OpReset:
		return "R"
	case OpH:
		return "H"
	case OpCNOT:
		return "CNOT"
	case OpLoad:
		return "L"
	case OpStore:
		return "S"
	case OpMeasureZ:
		return "M"
	default:
		return "I"
	}
}

// TwoQubit reports whether the op kind acts on two slots.
func (k OpKind) TwoQubit() bool {
	return k == OpCNOT || k == OpLoad || k == OpStore
}

// Op is one operation. MeasIdx is the measurement record index for
// OpMeasureZ ops and -1 otherwise.
type Op struct {
	Kind    OpKind
	A, B    int
	P       float64
	MeasIdx int
}

// Moment is one parallel layer of operations with a common duration.
type Moment struct {
	Duration float64
	Ops      []Op
}

// Circuit is a finished schedule plus slot metadata.
type Circuit struct {
	NumSlots int
	SlotLoc  []Loc
	Moments  []Moment
	NumMeas  int
}

// Duration returns the total wall-clock time of the circuit.
func (c *Circuit) Duration() float64 {
	t := 0.0
	for i := range c.Moments {
		t += c.Moments[i].Duration
	}
	return t
}

// CountKind returns the number of ops of kind k.
func (c *Circuit) CountKind(k OpKind) int {
	n := 0
	for i := range c.Moments {
		for _, op := range c.Moments[i].Ops {
			if op.Kind == k {
				n++
			}
		}
	}
	return n
}

// NumOps returns the total operation count.
func (c *Circuit) NumOps() int {
	n := 0
	for i := range c.Moments {
		n += len(c.Moments[i].Ops)
	}
	return n
}

// OpProbs gathers every op's error probability in global op order (moments
// in sequence, ops within each moment), appending to dst. The global op
// index is the shared coordinate system between a circuit's noise
// annotation and the structural fault model built from it (internal/dem).
func (c *Circuit) OpProbs(dst []float64) []float64 {
	for i := range c.Moments {
		for j := range c.Moments[i].Ops {
			dst = append(dst, c.Moments[i].Ops[j].P)
		}
	}
	return dst
}

// SetOpProbs overwrites every op's error probability from ps, indexed in
// global op order. len(ps) must equal NumOps.
func (c *Circuit) SetOpProbs(ps []float64) error {
	if len(ps) != c.NumOps() {
		return fmt.Errorf("circuit: SetOpProbs got %d probabilities for %d ops", len(ps), c.NumOps())
	}
	k := 0
	for i := range c.Moments {
		for j := range c.Moments[i].Ops {
			c.Moments[i].Ops[j].P = ps[k]
			k++
		}
	}
	return nil
}

// Builder assembles a Circuit moment by moment, tracking slot occupancy so
// idle noise lands only on slots that actually hold a qubit, and validating
// that no slot is used twice within a moment.
type Builder struct {
	c        Circuit
	occupied []bool
	inMoment bool
	touched  map[int]bool
	err      error
}

// NewBuilder returns a builder over n slots with the given locations.
// All slots start unoccupied; occupy slots with Reset, Load, or SetOccupied.
func NewBuilder(n int, locs []Loc) *Builder {
	if len(locs) != n {
		panic("circuit: slot location list length mismatch")
	}
	return &Builder{
		c: Circuit{
			NumSlots: n,
			SlotLoc:  append([]Loc(nil), locs...),
		},
		occupied: make([]bool, n),
		touched:  make(map[int]bool),
	}
}

// SetOccupied marks slot q as holding a qubit without emitting an op (used
// for perfectly-prepared initial states).
func (b *Builder) SetOccupied(q int) { b.occupied[q] = true }

func (b *Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("circuit: "+format, args...)
	}
}

// Begin opens a new moment with the given duration. Moments must be closed
// with End before the next Begin.
func (b *Builder) Begin(duration float64) {
	if b.inMoment {
		b.setErr("Begin called inside an open moment")
		return
	}
	b.inMoment = true
	b.c.Moments = append(b.c.Moments, Moment{Duration: duration})
	clear(b.touched)
}

func (b *Builder) add(op Op) {
	if !b.inMoment {
		b.setErr("op %v outside a moment", op.Kind)
		return
	}
	for _, q := range []int{op.A, op.B} {
		if q < 0 || q >= b.c.NumSlots {
			b.setErr("slot %d out of range", q)
			return
		}
		if b.touched[q] {
			b.setErr("slot %d used twice in one moment", q)
			return
		}
	}
	b.touched[op.A] = true
	if op.Kind.TwoQubit() {
		b.touched[op.B] = true
	}
	m := &b.c.Moments[len(b.c.Moments)-1]
	m.Ops = append(m.Ops, op)
}

// Reset emits a transmon reset on q with post-reset bit-flip probability p.
func (b *Builder) Reset(q int, p float64) {
	b.add(Op{Kind: OpReset, A: q, B: q, P: p, MeasIdx: -1})
	b.occupied[q] = true
}

// H emits a Hadamard on q.
func (b *Builder) H(q int, p float64) {
	if !b.occupied[q] {
		b.setErr("H on unoccupied slot %d", q)
	}
	b.add(Op{Kind: OpH, A: q, B: q, P: p, MeasIdx: -1})
}

// CNOT emits a controlled-NOT (control c, target t).
func (b *Builder) CNOT(c, t int, p float64) {
	if c == t {
		b.setErr("CNOT control equals target (%d)", c)
		return
	}
	if !b.occupied[c] || !b.occupied[t] {
		b.setErr("CNOT on unoccupied slot (%d,%d)", c, t)
	}
	b.add(Op{Kind: OpCNOT, A: c, B: t, P: p, MeasIdx: -1})
}

// Load moves the qubit stored in cavity mode m into transmon t.
func (b *Builder) Load(t, m int, p float64) {
	if b.c.SlotLoc[t] != SlotTransmon || b.c.SlotLoc[m] != SlotCavityMode {
		b.setErr("Load wants (transmon, mode), got (%v, %v)", b.c.SlotLoc[t], b.c.SlotLoc[m])
		return
	}
	if !b.occupied[m] {
		b.setErr("Load from empty mode %d", m)
	}
	if b.occupied[t] {
		b.setErr("Load into occupied transmon %d", t)
	}
	b.add(Op{Kind: OpLoad, A: t, B: m, P: p, MeasIdx: -1})
	b.occupied[t], b.occupied[m] = true, false
}

// Store moves the qubit in transmon t back into cavity mode m.
func (b *Builder) Store(t, m int, p float64) {
	if b.c.SlotLoc[t] != SlotTransmon || b.c.SlotLoc[m] != SlotCavityMode {
		b.setErr("Store wants (transmon, mode), got (%v, %v)", b.c.SlotLoc[t], b.c.SlotLoc[m])
		return
	}
	if !b.occupied[t] {
		b.setErr("Store from empty transmon %d", t)
	}
	if b.occupied[m] {
		b.setErr("Store into occupied mode %d", m)
	}
	b.add(Op{Kind: OpStore, A: t, B: m, P: p, MeasIdx: -1})
	b.occupied[t], b.occupied[m] = false, true
}

// MeasureZ emits a Z-basis measurement of q with record-flip probability p
// and returns the measurement index.
func (b *Builder) MeasureZ(q int, p float64) int {
	if !b.occupied[q] {
		b.setErr("measurement of unoccupied slot %d", q)
	}
	idx := b.c.NumMeas
	b.add(Op{Kind: OpMeasureZ, A: q, B: q, P: p, MeasIdx: idx})
	b.c.NumMeas++
	return idx
}

// Discard marks slot q as no longer holding a qubit, without emitting an op.
// Used after ancilla measurements: the outcome is recorded classically and
// the transmon's post-measurement state is abandoned (it will be reset, or
// re-initialized by the next load, before reuse). Discarded slots stop
// accruing idle noise.
func (b *Builder) Discard(q int) {
	if q < 0 || q >= b.c.NumSlots {
		b.setErr("Discard of slot %d out of range", q)
		return
	}
	b.occupied[q] = false
}

// End seals the current moment. idleProb, if non-nil, is consulted for every
// occupied slot the moment did not touch; any positive-duration moment emits
// an OpIdle with the returned probability (even a zero one, so the circuit's
// op structure depends only on durations, never on how small a coherence
// time makes the idle error — zero-probability ops are inert everywhere).
func (b *Builder) End(idleProb func(slot int, loc Loc, dur float64) float64) {
	if !b.inMoment {
		b.setErr("End without Begin")
		return
	}
	m := &b.c.Moments[len(b.c.Moments)-1]
	if idleProb != nil {
		for q := 0; q < b.c.NumSlots; q++ {
			if !b.occupied[q] || b.touched[q] {
				continue
			}
			if p := idleProb(q, b.c.SlotLoc[q], m.Duration); p > 0 || m.Duration > 0 {
				m.Ops = append(m.Ops, Op{Kind: OpIdle, A: q, B: q, P: p, MeasIdx: -1})
			}
		}
	}
	b.inMoment = false
}

// Finish returns the built circuit or the first construction error.
func (b *Builder) Finish() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.inMoment {
		return nil, fmt.Errorf("circuit: Finish with an open moment")
	}
	c := b.c
	return &c, nil
}
