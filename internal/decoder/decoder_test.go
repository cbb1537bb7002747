package decoder

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// lineGraph builds a synthetic path decoding graph:
// boundary - 0 - 1 - ... - (n-1) - boundary, with a logical mask on the
// last boundary edge (like a distance-n repetition code).
func lineGraph(n int, p float64) *dem.Graph {
	m := &dem.Model{NumDets: n}
	add := func(dets []int32, obs bool) {
		m.Mechs = append(m.Mechs, dem.Mechanism{Dets: dets, Obs: obs, P: p})
	}
	add([]int32{0}, false)
	for i := 0; i < n-1; i++ {
		add([]int32{int32(i), int32(i + 1)}, false)
	}
	add([]int32{int32(n - 1)}, true)
	g, err := m.DecodingGraph()
	if err != nil {
		panic(err)
	}
	return g
}

func decoders(g *dem.Graph) []Decoder {
	return []Decoder{NewUnionFind(g), NewExact(g)}
}

func TestEmptyEvents(t *testing.T) {
	g := lineGraph(5, 1e-3)
	for _, d := range decoders(g) {
		obs, err := d.Decode(nil)
		if err != nil || obs {
			t.Errorf("%s: empty decode gave (%v, %v)", d.Name(), obs, err)
		}
	}
}

// On the line graph, a single event at position i should match to the
// nearest boundary: obs flips exactly when the right end is closer.
func TestLineGraphSingleEvent(t *testing.T) {
	n := 7
	g := lineGraph(n, 1e-3)
	for _, d := range decoders(g) {
		for i := 0; i < n; i++ {
			obs, err := d.Decode([]int{i})
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			want := i > n/2 // closer to the right (logical) boundary
			if obs != want {
				t.Errorf("%s: event at %d decoded obs=%v, want %v", d.Name(), i, obs, want)
			}
		}
	}
}

// A pair of adjacent events should match to each other (no logical flip);
// events at the two extreme ends should match out through the boundaries
// (one logical flip).
func TestLineGraphPairs(t *testing.T) {
	n := 9
	g := lineGraph(n, 1e-3)
	for _, d := range decoders(g) {
		obs, err := d.Decode([]int{3, 4})
		if err != nil || obs {
			t.Errorf("%s: adjacent pair gave (%v,%v), want (false,nil)", d.Name(), obs, err)
		}
		obs, err = d.Decode([]int{0, n - 1})
		if err != nil || !obs {
			t.Errorf("%s: extreme pair gave (%v,%v), want (true,nil)", d.Name(), obs, err)
		}
	}
}

func circuitGraph(t testing.TB, scheme extract.Scheme, d int, phys float64) (*dem.Model, *dem.Graph) {
	t.Helper()
	e, err := extract.Build(extract.Config{
		Scheme: scheme, Distance: d, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledTo(phys),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dem.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.DecodingGraph()
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

// ambiguousFootprints returns footprint keys carrying both logical classes;
// no decoder can get those right for both classes simultaneously.
func ambiguousFootprints(m *dem.Model) map[string]bool {
	seen := map[string]bool{}
	amb := map[string]bool{}
	for i := range m.Mechs {
		key := ""
		for _, d := range m.Mechs[i].Dets {
			key += fmt.Sprintf("%d,", d)
		}
		if seen[key] {
			amb[key] = true
		}
		seen[key] = true
	}
	return amb
}

// Nearly every unambiguous single mechanism must decode back to its own
// logical class. A handful of legitimate exceptions exist at d=3: for an
// extremely improbable mechanism (weight ~ -ln p very large), the
// maximum-likelihood explanation of its syndrome can genuinely be a cheaper
// multi-edge path in the opposite logical class. Exact and component
// matching must agree with each other everywhere.
func TestSingleMechanismRoundTrip(t *testing.T) {
	for _, scheme := range []extract.Scheme{extract.Baseline, extract.CompactInterleaved} {
		m, g := circuitGraph(t, scheme, 3, 1e-3)
		amb := ambiguousFootprints(m)
		for _, dec := range decoders(g) {
			failures, total := 0, 0
			for i := range m.Mechs {
				mech := &m.Mechs[i]
				key := ""
				for _, d := range mech.Dets {
					key += fmt.Sprintf("%d,", d)
				}
				if amb[key] || len(mech.Dets) == 0 {
					continue
				}
				events := make([]int, len(mech.Dets))
				for j, d := range mech.Dets {
					events[j] = int(d)
				}
				obs, err := dec.Decode(events)
				if err != nil {
					t.Fatalf("%s/%v: mechanism %d: %v", dec.Name(), scheme, i, err)
				}
				total++
				if obs != mech.Obs {
					failures++
				}
			}
			limit := 0
			if scheme != extract.Baseline {
				limit = total/20 + 1
			}
			if failures > limit {
				t.Errorf("%s/%v: %d/%d single mechanisms misdecoded (limit %d)", dec.Name(), scheme, failures, total, limit)
			}
		}
	}
}

// Two simultaneous mechanisms are still guaranteed-correctable at d=5 for an
// exact matcher; union-find is allowed a small slack.
func TestDoubleMechanismRoundTrip(t *testing.T) {
	m, g := circuitGraph(t, extract.Baseline, 5, 1e-3)
	rng := rand.New(rand.NewPCG(41, 0))
	uf := NewUnionFind(g)
	ex := NewExact(g)
	bl := NewBlossom(g)

	parity := make([]bool, m.NumDets)
	ufFail, exFail, blFail, total := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		a := &m.Mechs[rng.IntN(len(m.Mechs))]
		b := &m.Mechs[rng.IntN(len(m.Mechs))]
		for i := range parity {
			parity[i] = false
		}
		for _, d := range a.Dets {
			parity[d] = !parity[d]
		}
		for _, d := range b.Dets {
			parity[d] = !parity[d]
		}
		var events []int
		for i, v := range parity {
			if v {
				events = append(events, i)
			}
		}
		want := a.Obs != b.Obs
		total++
		if obs, err := ex.Decode(events); err != nil {
			t.Fatal(err)
		} else if obs != want {
			exFail++
		}
		if obs, err := bl.Decode(events); err != nil {
			t.Fatal(err)
		} else if obs != want {
			blFail++
		}
		if obs, err := uf.Decode(events); err != nil {
			t.Fatal(err)
		} else if obs != want {
			ufFail++
		}
	}
	// A small number of weighted degeneracies is expected (see the single-
	// mechanism test comment); both exact matchers must stay within it and
	// agree closely, union-find gets modest extra slack.
	if float64(exFail)/float64(total) > 0.025 {
		t.Errorf("exact decoder misdecoded %d/%d double faults at d=5", exFail, total)
	}
	if float64(blFail)/float64(total) > 0.025 {
		t.Errorf("blossom decoder misdecoded %d/%d double faults at d=5", blFail, total)
	}
	if float64(ufFail)/float64(total) > 0.06 {
		t.Errorf("union-find misdecoded %d/%d double faults at d=5", ufFail, total)
	}
}

// Decoders must be deterministic across repeated calls (buffer reuse).
func TestDecodeDeterminism(t *testing.T) {
	m, g := circuitGraph(t, extract.NaturalInterleaved, 3, 5e-3)
	s := m.NewSampler()
	rng := rand.New(rand.NewPCG(7, 0))
	for _, d := range decoders(g) {
		for trial := 0; trial < 50; trial++ {
			events, _ := s.Sample(rng)
			ev := append([]int(nil), events...)
			if len(ev) > 12 {
				continue
			}
			first, err1 := d.Decode(ev)
			second, err2 := d.Decode(ev)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %v / %v", d.Name(), err1, err2)
			}
			if first != second {
				t.Fatalf("%s: nondeterministic decode", d.Name())
			}
		}
	}
}

func TestExactRejectsTooManyEvents(t *testing.T) {
	g := lineGraph(30, 1e-3)
	x := NewExact(g)
	x.MaxEvents = 4
	events := []int{0, 1, 2, 3, 4, 5}
	if _, err := x.Decode(events); err == nil {
		t.Error("exceeding MaxEvents must fail")
	}
}
