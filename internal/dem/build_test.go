package dem

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/pframe"
)

// buildStructureForward is the reference oracle for BuildStructure: it
// propagates every elementary fault forward through the rest of the circuit
// with pframe.Propagator (pinned to the exact tableau simulator by
// pframe's TestPropagateMatchesTableau), sums the flipped records into
// detectors, and merges footprints in fault enumeration order. Its cost is
// quadratic in circuit size.
func buildStructureForward(e *extract.Experiment) (*Structure, error) {
	ndet := len(e.Detectors)
	// Invert detector definitions: measurement -> detectors containing it.
	measDets := make([][]int32, e.Circ.NumMeas)
	for di, det := range e.Detectors {
		for _, m := range det.Meas {
			measDets[m] = append(measDets[m], int32(di))
		}
	}
	measObs := make([]bool, e.Circ.NumMeas)
	for _, m := range e.Observable {
		measObs[m] = !measObs[m]
	}

	prop := pframe.NewPropagator(e.Circ)
	s := &Structure{NumDets: ndet, NumOps: e.Circ.NumOps()}

	buckets := make(map[uint64][]int32) // footprint hash -> mechanism indices
	var srcs [][]int32                  // per-mechanism source indices into srcOp/srcDiv order
	var srcOps []int32                  // source k: global op
	var srcDivs []float64               // source k: branch divisor

	detParity := make(map[int32]bool, 8)
	var dets []int32
	var faults []pframe.WeightedFault

	gid := int32(-1)
	for mi := range e.Circ.Moments {
		m := &e.Circ.Moments[mi]
		for oi := range m.Ops {
			gid++
			op := &m.Ops[oi]
			faults = pframe.FaultsOf(mi, oi, op, faults[:0])
			if len(faults) == 0 {
				continue
			}
			div := float64(pframe.BranchCount(op.Kind))
			for fi := range faults {
				s.Stats.Faults++
				flips := prop.Propagate(faults[fi].Fault)
				clear(detParity)
				obs := false
				for _, meas := range flips {
					for _, d := range measDets[meas] {
						detParity[d] = !detParity[d]
					}
					if measObs[meas] {
						obs = !obs
					}
				}
				dets = dets[:0]
				for d, v := range detParity {
					if v {
						dets = append(dets, d)
					}
				}
				if len(dets) == 0 {
					if obs {
						s.Stats.UndetectableObs++
					} else {
						s.Stats.Harmless++
						continue
					}
				}
				slices.Sort(dets)
				if len(dets) > s.Stats.MaxFootprint {
					s.Stats.MaxFootprint = len(dets)
				}
				if len(dets) > 2 {
					s.Stats.MultiDetFaults++
				}

				// Find or create the mechanism with this footprint.
				h := fnv1aFootprint(dets, obs)
				mech := int32(-1)
				for _, cand := range buckets[h] {
					if s.mechs[cand].Obs == obs && slices.Equal(s.mechs[cand].Dets, dets) {
						mech = cand
						break
					}
				}
				if mech < 0 {
					mech = int32(len(s.mechs))
					s.mechs = append(s.mechs, Mechanism{Dets: slices.Clone(dets), Obs: obs})
					srcs = append(srcs, nil)
					buckets[h] = append(buckets[h], mech)
				}
				srcs[mech] = append(srcs[mech], int32(len(srcOps)))
				srcOps = append(srcOps, gid)
				srcDivs = append(srcDivs, div)
			}
		}
	}
	if s.Stats.UndetectableObs > 0 {
		return nil, fmt.Errorf("dem: %d faults flip the observable without any detector", s.Stats.UndetectableObs)
	}

	// Flatten sources to CSR in mechanism order.
	s.srcOff = make([]int32, 1, len(srcs)+1)
	s.srcOp = make([]int32, 0, len(srcOps))
	s.srcDiv = make([]float64, 0, len(srcDivs))
	for _, list := range srcs {
		for _, k := range list {
			s.srcOp = append(s.srcOp, srcOps[k])
			s.srcDiv = append(s.srcDiv, srcDivs[k])
		}
		s.srcOff = append(s.srcOff, int32(len(s.srcOp)))
	}
	s.Stats.Mechanisms = s.NumMechanisms()
	return s, nil
}

// assertSameStructure compares the reverse-pass build of e with the forward
// oracle field for field.
func assertSameStructure(t *testing.T, e *extract.Experiment) {
	t.Helper()
	got, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildStructureForward(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDets != want.NumDets || got.NumOps != want.NumOps {
		t.Fatalf("shape (%d dets, %d ops), want (%d, %d)", got.NumDets, got.NumOps, want.NumDets, want.NumOps)
	}
	if got.Stats != want.Stats {
		t.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"mechs", got.mechs, want.mechs},
		{"srcOp", got.srcOp, want.srcOp},
		{"srcDiv", got.srcDiv, want.srcDiv},
		{"srcOff", got.srcOff, want.srcOff},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s differs from the forward build", f.name)
		}
	}
}

// The reverse sensitivity pass must reproduce the forward per-fault
// propagation exactly — mechanism order, footprints, source order and
// stats — on every scheme, distance, basis, idle-charging mode and round
// count, so CellKeys, golden fixtures and RNG streams cannot move.
func TestBuildStructureMatchesForwardPropagation(t *testing.T) {
	type leg struct {
		scheme  extract.Scheme
		d       int
		basis   extract.Basis
		gapIdle bool
		rounds  int
	}
	var legs []leg
	for _, scheme := range extract.Schemes {
		for _, d := range []int{3, 5, 7} {
			for _, basis := range []extract.Basis{extract.BasisZ, extract.BasisX} {
				for _, gapIdle := range []bool{false, true} {
					for _, rounds := range []int{1, 2, d} {
						legs = append(legs, leg{scheme, d, basis, gapIdle, rounds})
					}
				}
			}
		}
	}
	legs = append(legs, leg{extract.CompactInterleaved, 9, extract.BasisZ, false, 9})
	for _, l := range legs {
		name := fmt.Sprintf("%v/d%d/%v/gap%v/r%d", l.scheme, l.d, l.basis, l.gapIdle, l.rounds)
		t.Run(name, func(t *testing.T) {
			if testing.Short() && l.d >= 7 && l.rounds == l.d {
				t.Skip("the quadratic forward oracle is slow at full depth for d >= 7; skipped under -short")
			}
			t.Parallel()
			e, err := extract.Build(extract.Config{
				Scheme: l.scheme, Distance: l.d, Rounds: l.rounds, Basis: l.basis,
				Params: hardware.Default(), ChargeGapIdle: l.gapIdle,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameStructure(t, e)
		})
	}
}

// A hand-built circuit pinning the rules the generated circuits lean on
// least: a measurement listed twice in one detector cancels out of it
// (parity reduction), and a Load/Store pair around an H moves the slot's
// sensitivities between transmon and cavity mode and swaps their X and Z
// parts on the way. The data qubit's reset X fault passes the H, and its X
// and Z sensitivities after the H differ (X reaches the data readout, Z
// the ancilla through the CNOT), so a missing swap moves that fault's
// source to the wrong mechanism.
func TestBuildStructureHandBuiltMovesAndParity(t *testing.T) {
	const p = 1e-2
	idle := func(int, circuit.Loc, float64) float64 { return 1e-3 }
	b := circuit.NewBuilder(3, []circuit.Loc{circuit.SlotTransmon, circuit.SlotCavityMode, circuit.SlotTransmon})
	step := func(ops func()) {
		b.Begin(1)
		ops()
		b.End(idle)
	}
	const data, mode, anc = 0, 1, 2
	step(func() { b.Reset(data, p); b.Reset(anc, p) })
	step(func() { b.Store(data, mode, p); b.H(anc, p) })
	step(func() { b.Load(data, mode, p) })
	step(func() { b.H(data, p) })
	step(func() { b.Store(data, mode, p) })
	step(func() {})
	step(func() { b.Load(data, mode, p) })
	step(func() { b.CNOT(anc, data, p) })
	step(func() { b.H(anc, p) })
	var m0, m1 int
	step(func() { m0 = b.MeasureZ(anc, p); m1 = b.MeasureZ(data, p) })
	c, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := &extract.Experiment{
		Circ: c,
		Detectors: []extract.Detector{
			{Meas: []int{m0, m0, m1}}, // parity-reduces to {m1}
			{Meas: []int{m0}},
			{Meas: []int{m0, m1, m1, m1}}, // parity-reduces to {m0, m1}
		},
		Observable: []int{m1},
	}
	assertSameStructure(t, e)

	s, err := BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	// The record sets alone: a flip of m0 fires D1 and D2 (D0 lists it
	// twice), a flip of m1 fires D0 and D2 and the observable.
	seen := make(map[string]bool)
	for i := 0; i < s.NumMechanisms(); i++ {
		seen[fmt.Sprint(s.Footprint(i))] = true
	}
	for _, k := range []string{"[1 2] false", "[0 2] true"} {
		if !seen[k] {
			t.Errorf("no mechanism with footprint %s", k)
		}
	}
}

// Load and Store empty one slot of their pair, and the frame model drops
// whatever that slot held. Circuits from circuit.Builder never act on an
// emptied slot before refilling it, so only a raw circuit can observe the
// rule: here the emptied transmon and the emptied mode are each measured,
// and an idle fault sits on the mode before the Store overwrites it.
func TestBuildStructureMovesClearEmptiedSlot(t *testing.T) {
	const p = 1e-2
	const tr, mode = 0, 1
	op := func(k circuit.OpKind, a, b, meas int) circuit.Op {
		return circuit.Op{Kind: k, A: a, B: b, P: p, MeasIdx: meas}
	}
	moments := [][]circuit.Op{
		{op(circuit.OpReset, tr, tr, -1), op(circuit.OpIdle, mode, mode, -1)},
		{op(circuit.OpStore, tr, mode, -1)},
		{op(circuit.OpMeasureZ, tr, tr, 0)}, // the emptied transmon
		{op(circuit.OpLoad, tr, mode, -1)},
		{op(circuit.OpMeasureZ, mode, mode, 1)}, // the emptied mode
		{op(circuit.OpMeasureZ, tr, tr, 2)},
	}
	c := &circuit.Circuit{
		NumSlots: 2,
		SlotLoc:  []circuit.Loc{circuit.SlotTransmon, circuit.SlotCavityMode},
		NumMeas:  3,
	}
	for _, ops := range moments {
		c.Moments = append(c.Moments, circuit.Moment{Duration: 1, Ops: ops})
	}
	e := &extract.Experiment{
		Circ:       c,
		Detectors:  []extract.Detector{{Meas: []int{0}}, {Meas: []int{1}}, {Meas: []int{2}}},
		Observable: []int{2},
	}
	assertSameStructure(t, e)
}

// BuildStructure's cost on the Compact-Interleaved Fig. 11 row: the
// per-layer number behind every cold structure build.
func BenchmarkBuildStructure(b *testing.B) {
	for _, d := range []int{5, 7, 9, 11} {
		e, err := extract.Build(extract.Config{
			Scheme: extract.CompactInterleaved, Distance: d, Basis: extract.BasisZ,
			Params: hardware.Default(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildStructure(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}
