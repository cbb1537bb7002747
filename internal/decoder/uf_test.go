package decoder

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// permutedGraph returns g with its edge ids permuted and every adjacency
// list shuffled: the same node and edge counts, so Rebind accepts it, but
// every per-edge and per-slot table differs.
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
	if !uf.Rebind(g2) {
		t.Fatal("rebind refused a same-shape graph")
	}
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
	if !uf.Rebind(graphs[1]) {
		t.Fatal("rebind refused a same-topology graph")
	}
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
	if !uf.Rebind(g2) {
		t.Fatal("rebind refused a same-shape graph")
	}
	check("rebound", uf, g2)
}

// TestUnionFindStampWrap decodes one shot, forces the 32-bit decode stamp
// and the active-list generation to wrap, and decodes another: the stamps
// the first shot left now equal the live ones of the second unless the
// wrap cleared them, so the second shot must match a fresh decoder.
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
}
