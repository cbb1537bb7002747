package decoder

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// permutedGraph returns g with its edge ids permuted and every adjacency
// list shuffled: the same node and edge counts, but every per-edge and
// per-slot table differs.
func permutedGraph(g *dem.Graph, seed uint64) *dem.Graph {
	rng := rand.New(rand.NewPCG(seed, 3))
	perm := rng.Perm(len(g.Edges))
	out := &dem.Graph{NumNodes: g.NumNodes, Stats: g.Stats}
	out.Edges = make([]dem.Edge, len(g.Edges))
	for i, e := range g.Edges {
		out.Edges[perm[i]] = e
	}
	out.Adj = make([][]int32, len(g.Adj))
	for v, adj := range g.Adj {
		for _, ei := range adj {
			out.Adj[v] = append(out.Adj[v], int32(perm[ei]))
		}
		rng.Shuffle(len(out.Adj[v]), func(i, j int) {
			out.Adj[v][i], out.Adj[v][j] = out.Adj[v][j], out.Adj[v][i]
		})
	}
	return out
}

// ufOutcome is everything one decode pins: the prediction, the growth-loop
// counters and the grown support.
type ufOutcome struct {
	pred                 bool
	rounds, scans, peels int64
	support              []int32
}

func decodeOutcome(t *testing.T, uf *UnionFind, events []int) ufOutcome {
	t.Helper()
	before := uf.DecoderStats()
	pred, err := uf.Decode(events)
	if err != nil {
		t.Fatalf("events %v: %v", events, err)
	}
	d := uf.DecoderStats().Sub(before)
	return ufOutcome{pred, d.UFGrowthRounds, d.UFEdgeScans, d.UFPeelNodes, grownSupport(uf, nil)}
}

func sameOutcome(a, b ufOutcome) bool {
	return a.pred == b.pred && a.rounds == b.rounds && a.scans == b.scans &&
		a.peels == b.peels && slices.Equal(a.support, b.support)
}

// TestUnionFindRebindRebuildsTables rebinds a decoder that has been
// decoding one graph onto a graph of the same shape with permuted edge ids
// and reordered adjacency, then checks every shot against a decoder built
// fresh on the new graph. A table Rebind left stale — capacities,
// endpoints or the adjacency slots peel reads — changes some outcome.
func TestUnionFindRebindRebuildsTables(t *testing.T) {
	m, g := circuitGraph(t, extract.Baseline, 5, 8e-3)
	g2 := permutedGraph(g, 1)
	shots := nonEmptyShots(m, 400, 5)
	uf := NewUnionFind(g)
	for _, ev := range shots[:50] {
		decodeOutcome(t, uf, ev)
	}
	uf.Rebind(g2)
	fresh := NewUnionFind(g2)
	for i, ev := range shots {
		if got, want := decodeOutcome(t, uf, ev), decodeOutcome(t, fresh, ev); !sameOutcome(got, want) {
			t.Fatalf("shot %d %v: rebound decoder %+v, fresh decoder %+v", i, ev, got, want)
		}
	}
}

// TestUnionFindRebindSameTopology rebinds across two noise scales of one
// hoisted topology, whose weighted graphs share one adjacency slice. Load
// keeps the slot table then, and every outcome must still equal a decoder
// built fresh on the new graph.
func TestUnionFindRebindSameTopology(t *testing.T) {
	e, err := extract.Build(extract.Config{Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ, Params: hardware.Default()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dem.BuildStructure(e)
	if err != nil {
		t.Fatal(err)
	}
	var models []*dem.Model
	var graphs []*dem.Graph
	for _, p := range []float64{3e-3, 9e-3} {
		noise, err := e.NoiseProbs(hardware.Default().ScaledGatesTo(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := st.Reweight(noise)
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.DecodingGraph()
		if err != nil {
			t.Fatal(err)
		}
		models, graphs = append(models, m), append(graphs, g)
	}
	if &graphs[0].Adj[0] != &graphs[1].Adj[0] {
		t.Fatal("weighted graphs of one topology do not share their adjacency")
	}
	shots := nonEmptyShots(models[1], 400, 5)
	uf := NewUnionFind(graphs[0])
	for _, ev := range shots[:50] {
		decodeOutcome(t, uf, ev)
	}
	uf.Rebind(graphs[1])
	fresh := NewUnionFind(graphs[1])
	for i, ev := range shots {
		if got, want := decodeOutcome(t, uf, ev), decodeOutcome(t, fresh, ev); !sameOutcome(got, want) {
			t.Fatalf("shot %d %v: rebound decoder %+v, fresh decoder %+v", i, ev, got, want)
		}
	}
}

// starGraph is a center node 0 joined to leaves 1..leaves, every leaf and
// the center also joined to the boundary by a much heavier edge. Every
// third spoke carries the logical mask.
func starGraph(leaves int) *dem.Graph {
	m := &dem.Model{NumDets: leaves + 1}
	add := func(dets []int32, obs bool, p float64) {
		m.Mechs = append(m.Mechs, dem.Mechanism{Dets: dets, Obs: obs, P: p})
	}
	add([]int32{0}, false, 1e-6)
	for k := 1; k <= leaves; k++ {
		add([]int32{0, int32(k)}, k%3 == 0, 1e-3)
		add([]int32{int32(k)}, false, 1e-6)
	}
	g, err := m.DecodingGraph()
	if err != nil {
		panic(err)
	}
	return g
}

// TestUnionFindHighDegreeNode decodes on a node of degree far above the
// satMask width, where most spokes sit in the slots the mask's last bit
// stands for. Two events joined by spokes must be corrected along exactly
// those spokes, through NewUnionFind and through Rebind.
func TestUnionFindHighDegreeNode(t *testing.T) {
	const leaves = 70
	g := starGraph(leaves)
	if deg := len(g.Adj[0]); deg <= 64 {
		t.Fatalf("center degree %d, want > 64", deg)
	}
	check := func(name string, uf *UnionFind, g *dem.Graph) {
		spokeObs := make([]bool, leaves+1)
		for _, ei := range g.Adj[0] {
			if e := g.Edges[ei]; e.V != dem.BoundaryNode {
				spokeObs[e.U+e.V] = e.Obs // one endpoint is the center
			}
		}
		for k := 1; k <= leaves; k++ {
			pred, err := uf.Decode([]int{0, k})
			if err != nil {
				t.Fatalf("%s: events {0,%d}: %v", name, k, err)
			}
			if pred != spokeObs[k] {
				t.Errorf("%s: events {0,%d}: prediction %v, want the spoke's %v", name, k, pred, spokeObs[k])
			}
		}
		for k := 1; k < leaves; k += 7 {
			j := leaves - k/2
			if j == k {
				continue
			}
			pred, err := uf.Decode([]int{k, j})
			if err != nil {
				t.Fatalf("%s: events {%d,%d}: %v", name, k, j, err)
			}
			if want := spokeObs[k] != spokeObs[j]; pred != want {
				t.Errorf("%s: events {%d,%d}: prediction %v, want %v", name, k, j, pred, want)
			}
		}
	}
	uf := NewUnionFind(g)
	check("fresh", uf, g)
	g2 := permutedGraph(g, 2)
	uf.Rebind(g2)
	check("rebound", uf, g2)
}

// shapeWalk is the graph sequence the cross-shape rebind tests walk one
// decoder through: Baseline, then Compact-Interleaved, each at d = 3, 11,
// 5, 9, so that a rebind shrinks and grows every array, within its
// capacity and past it, and switches scheme at a size change.
type shapeLeg struct {
	name string
	m    *dem.Model
	g    *dem.Graph
}

func shapeWalk(t *testing.T, phys float64) []shapeLeg {
	t.Helper()
	var out []shapeLeg
	for _, scheme := range []extract.Scheme{extract.Baseline, extract.CompactInterleaved} {
		for _, d := range []int{3, 11, 5, 9} {
			m, g := circuitGraph(t, scheme, d, phys)
			out = append(out, shapeLeg{fmt.Sprintf("%v d=%d", scheme, d), m, g})
		}
	}
	return out
}

// TestUnionFindRebindAcrossShapes rebinds one decoder through graphs of
// every size in turn. Each shot must decode exactly as on a decoder built
// fresh on its graph: a table resliced without being reloaded, or a stale
// record that reads as live after a grow, changes some outcome.
func TestUnionFindRebindAcrossShapes(t *testing.T) {
	uf := &UnionFind{}
	for i, leg := range shapeWalk(t, 5e-3) {
		uf.Rebind(leg.g)
		fresh := NewUnionFind(leg.g)
		for j, ev := range nonEmptyShots(leg.m, 120, uint64(i)) {
			if got, want := decodeOutcome(t, uf, ev), decodeOutcome(t, fresh, ev); !sameOutcome(got, want) {
				t.Fatalf("%s shot %d %v: rebound decoder %+v, fresh decoder %+v", leg.name, j, ev, got, want)
			}
		}
	}
}

// TestUnionFindStampWrap decodes one shot, forces the 32-bit decode stamp
// and the active-list generation to wrap, and decodes another: the stamps
// the first shot left now equal the live ones of the second unless the
// wrap cleared them, so the second shot must match a fresh decoder.
//
// The wrap must also clear past the current graph's length. Each round
// decodes a shot on a large graph at epoch 3, shrinks the decoder to a
// small graph, grows it within capacity to a middle one and wraps there,
// then grows it back to the large graph and decodes another shot at epoch
// 3 again: any record the wrap left past the middle graph's length reads
// as live.
func TestUnionFindStampWrap(t *testing.T) {
	m, g := circuitGraph(t, extract.Baseline, 5, 8e-3)
	first, second := nonEmptyShots(m, 100, 7), nonEmptyShots(m, 100, 8)
	fresh := NewUnionFind(g)
	for i := range first {
		uf := NewUnionFind(g)
		decodeOutcome(t, uf, first[i])
		uf.epoch = 1<<32 - 1
		uf.activeGen = 1 << 30
		if got, want := decodeOutcome(t, uf, second[i]), decodeOutcome(t, fresh, second[i]); !sameOutcome(got, want) {
			t.Fatalf("shot %v after %v and the wrap: %+v, fresh decoder %+v", second[i], first[i], got, want)
		}
	}

	mBig, gBig := circuitGraph(t, extract.Baseline, 9, 8e-3)
	_, gSmall := circuitGraph(t, extract.Baseline, 3, 8e-3)
	bigFirst, bigSecond := nonEmptyShots(mBig, 20, 9), nonEmptyShots(mBig, 20, 10)
	fresh = NewUnionFind(gBig)
	for i := range bigFirst {
		uf := NewUnionFind(gBig)
		uf.epoch = 2
		decodeOutcome(t, uf, bigFirst[i])
		uf.Rebind(gSmall)
		uf.Rebind(g)
		uf.epoch = 1<<32 - 1
		uf.activeGen = 1 << 30
		decodeOutcome(t, uf, first[i]) // the wrap: this decode takes epoch 1
		uf.Rebind(gBig)
		if uf.ep32 != 2 {
			t.Fatalf("rebind after the wrap took epoch %d, want 2", uf.ep32)
		}
		if got, want := decodeOutcome(t, uf, bigSecond[i]), decodeOutcome(t, fresh, bigSecond[i]); !sameOutcome(got, want) {
			t.Fatalf("shot %v after %v, a wrap at d=5 and a grow to d=9: %+v, fresh decoder %+v", bigSecond[i], bigFirst[i], got, want)
		}
	}
}
