// Package pframe executes circuits from internal/circuit under the Pauli
// error frame model. It has two modes:
//
//   - Sampler: Monte-Carlo sampling of the circuit's noise channels,
//     producing the flip bit of every measurement record relative to the
//     noiseless reference execution. This is the reference sampler used to
//     validate the much faster detector-error-model sampler in internal/dem.
//
//   - Propagator: deterministic forward propagation of one elementary
//     fault. It is the reference oracle against which internal/dem's tests
//     check the detector-error-model builder's reverse sensitivity pass,
//     and is itself checked against the exact tableau simulator.
//
// FaultsOf and BranchCount define the elementary fault enumeration that
// every consumer (the model builder included) shares.
//
// Because every gate is Clifford and every error Pauli, the simulator only
// tracks the accumulated Pauli frame (error relative to the ideal state), an
// O(1)-per-gate update. Measurement outcomes themselves are never needed:
// detectors and logical observables are XOR combinations of measurement
// records in which the noiseless contribution cancels, so the flip bits
// carry all the information (this cancellation is verified against the exact
// tableau simulator in the extract tests).
package pframe

import (
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/pauli"
)

// applyOp advances the frame through the ideal action of op, returning the
// measurement flip contribution for OpMeasureZ (frame X component).
func applyOp(frame []pauli.Pauli, op *circuit.Op) bool {
	switch op.Kind {
	case circuit.OpReset:
		frame[op.A] = pauli.I
	case circuit.OpH:
		p := frame[op.A]
		frame[op.A] = p>>1&1 | p&1<<1
	case circuit.OpCNOT:
		pc, pt := frame[op.A], frame[op.B]
		if pc.XBit() {
			pt ^= pauli.X
		}
		if frame[op.B].ZBit() {
			pc ^= pauli.Z
		}
		frame[op.A], frame[op.B] = pc, pt
	case circuit.OpLoad:
		// Mode B's content moves to transmon A; whatever junk was on the
		// transmon is exchanged into the mode and discarded (the transmon
		// is re-initialized as part of the transfer).
		frame[op.A] = frame[op.B]
		frame[op.B] = pauli.I
	case circuit.OpStore:
		frame[op.B] = frame[op.A]
		frame[op.A] = pauli.I
	case circuit.OpMeasureZ:
		return frame[op.A].XBit()
	case circuit.OpIdle:
		// No ideal action.
	}
	return false
}

// Sampler draws noisy executions of a fixed circuit.
type Sampler struct {
	c     *circuit.Circuit
	frame []pauli.Pauli
	flips []bool
}

// NewSampler prepares a sampler for c. The sampler reuses internal buffers;
// it is not safe for concurrent use (create one per goroutine).
func NewSampler(c *circuit.Circuit) *Sampler {
	return &Sampler{
		c:     c,
		frame: make([]pauli.Pauli, c.NumSlots),
		flips: make([]bool, c.NumMeas),
	}
}

// Sample runs one noisy execution and returns the measurement flip bits.
// The returned slice is reused by the next call.
func (s *Sampler) Sample(rng *rand.Rand) []bool {
	for i := range s.frame {
		s.frame[i] = pauli.I
	}
	for i := range s.flips {
		s.flips[i] = false
	}
	for mi := range s.c.Moments {
		m := &s.c.Moments[mi]
		for oi := range m.Ops {
			op := &m.Ops[oi]
			flip := applyOp(s.frame, op)
			if op.Kind == circuit.OpMeasureZ {
				if op.P > 0 && rng.Float64() < op.P {
					flip = !flip
				}
				s.flips[op.MeasIdx] = flip
				continue
			}
			if op.P <= 0 || rng.Float64() >= op.P {
				continue
			}
			switch op.Kind {
			case circuit.OpReset:
				frameInject(s.frame, op.A, pauli.X)
			case circuit.OpH, circuit.OpIdle:
				frameInject(s.frame, op.A, pauli.All[rng.IntN(3)])
			case circuit.OpCNOT, circuit.OpLoad, circuit.OpStore:
				r := 1 + rng.IntN(15)
				frameInject(s.frame, op.A, pauli.Pauli(r>>2))
				frameInject(s.frame, op.B, pauli.Pauli(r&3))
			}
		}
	}
	return s.flips
}

func frameInject(frame []pauli.Pauli, q int, p pauli.Pauli) {
	frame[q] ^= p
}

// Fault identifies one elementary Pauli fault: the Paulis PA and PB are
// injected right after op (Moment, Op) acts, or, for measurement ops,
// FlipMeas flips the record.
type Fault struct {
	Moment, Op int
	PA, PB     pauli.Pauli
	FlipMeas   bool
}

// Propagator propagates single faults through a fixed circuit and reports
// which measurement records flip. It reuses buffers across calls and applies
// a support-tracking optimization: after the fault is injected, only ops
// whose slots intersect the frame support do real work.
type Propagator struct {
	c     *circuit.Circuit
	frame []pauli.Pauli
	dirty []int // slots with nonzero frame
	flips []int // measurement indices that flipped
}

// NewPropagator prepares a propagator for c.
func NewPropagator(c *circuit.Circuit) *Propagator {
	return &Propagator{
		c:     c,
		frame: make([]pauli.Pauli, c.NumSlots),
	}
}

// Propagate runs the circuit noiselessly with the single fault f injected
// and returns the indices of flipped measurement records (sorted ascending;
// the slice is reused by the next call).
func (p *Propagator) Propagate(f Fault) []int {
	for _, q := range p.dirty {
		p.frame[q] = pauli.I
	}
	p.dirty = p.dirty[:0]
	p.flips = p.flips[:0]

	inject := func(q int, pl pauli.Pauli) {
		if pl == pauli.I {
			return
		}
		if p.frame[q] == pauli.I {
			p.dirty = append(p.dirty, q)
		}
		p.frame[q] ^= pl
	}

	for mi := f.Moment; mi < len(p.c.Moments); mi++ {
		m := &p.c.Moments[mi]
		oi := 0
		if mi == f.Moment {
			// Ops before the faulty one cannot be affected (the frame is
			// identity until the fault is injected).
			oi = f.Op
			op := &m.Ops[f.Op]
			if f.FlipMeas {
				if op.Kind != circuit.OpMeasureZ {
					panic("pframe: FlipMeas fault on non-measurement op")
				}
				p.flips = append(p.flips, op.MeasIdx)
			}
			inject(op.A, f.PA)
			if op.Kind.TwoQubit() {
				inject(op.B, f.PB)
			} else if f.PB != pauli.I {
				panic("pframe: PB fault on single-qubit op")
			}
			oi = f.Op + 1
		}
		if len(p.dirty) == 0 && len(p.flips) > 0 {
			// Frame returned to identity; nothing further can flip.
			break
		}
		for ; oi < len(m.Ops); oi++ {
			op := &m.Ops[oi]
			fa := p.frame[op.A]
			if op.Kind.TwoQubit() {
				if fa == pauli.I && p.frame[op.B] == pauli.I {
					continue
				}
				p.applyTracked(op)
				continue
			}
			if fa == pauli.I {
				continue
			}
			if op.Kind == circuit.OpMeasureZ {
				if fa.XBit() {
					p.flips = append(p.flips, op.MeasIdx)
				}
				continue
			}
			p.applyTracked(op)
		}
	}
	return p.flips
}

// applyTracked applies op's ideal action keeping the dirty list in sync.
func (p *Propagator) applyTracked(op *circuit.Op) {
	beforeA := p.frame[op.A]
	var beforeB pauli.Pauli
	if op.Kind.TwoQubit() {
		beforeB = p.frame[op.B]
	}
	applyOp(p.frame, op)
	if beforeA == pauli.I && p.frame[op.A] != pauli.I {
		p.dirty = append(p.dirty, op.A)
	}
	if op.Kind.TwoQubit() && beforeB == pauli.I && p.frame[op.B] != pauli.I {
		p.dirty = append(p.dirty, op.B)
	}
	// Slots that became identity stay on the dirty list; that is harmless
	// (they are re-cleared at the start of the next Propagate call).
}

// BranchCount returns the number of equally-likely elementary fault
// branches of an op's error channel: 1 for reset (X flip) and measurement
// (record flip), 3 for one-qubit depolarizing, 15 for two-qubit. Each
// branch of FaultsOf carries probability op.P / BranchCount(op.Kind); any
// consumer re-deriving branch probabilities (dem.Structure.Reweight) must
// use this same constant.
func BranchCount(k circuit.OpKind) int {
	switch k {
	case circuit.OpReset, circuit.OpMeasureZ:
		return 1
	case circuit.OpCNOT, circuit.OpLoad, circuit.OpStore:
		return 15
	default: // OpH, OpIdle
		return 3
	}
}

// FaultsOf enumerates the elementary faults of op at position (mi, oi),
// appending to dst. Each fault's probability is op.P / BranchCount(op.Kind);
// reset errors are a single X flip and measurement errors a single record
// flip, each with probability op.P.
func FaultsOf(mi, oi int, op *circuit.Op, dst []WeightedFault) []WeightedFault {
	if op.P <= 0 {
		return dst
	}
	p := op.P / float64(BranchCount(op.Kind))
	switch op.Kind {
	case circuit.OpReset:
		dst = append(dst, WeightedFault{Fault{mi, oi, pauli.X, pauli.I, false}, p})
	case circuit.OpMeasureZ:
		dst = append(dst, WeightedFault{Fault{mi, oi, pauli.I, pauli.I, true}, p})
	case circuit.OpH, circuit.OpIdle:
		for _, pl := range pauli.All {
			dst = append(dst, WeightedFault{Fault{mi, oi, pl, pauli.I, false}, p})
		}
	case circuit.OpCNOT, circuit.OpLoad, circuit.OpStore:
		for r := 1; r < 16; r++ {
			dst = append(dst, WeightedFault{
				Fault{mi, oi, pauli.Pauli(r >> 2), pauli.Pauli(r & 3), false},
				p,
			})
		}
	}
	return dst
}

// WeightedFault pairs an elementary fault with its probability.
type WeightedFault struct {
	Fault Fault
	P     float64
}

// AllFaults enumerates every elementary fault of the circuit.
func AllFaults(c *circuit.Circuit) []WeightedFault {
	var out []WeightedFault
	for mi := range c.Moments {
		for oi := range c.Moments[mi].Ops {
			out = FaultsOf(mi, oi, &c.Moments[mi].Ops[oi], out)
		}
	}
	return out
}
