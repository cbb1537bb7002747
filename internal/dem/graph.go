package dem

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BoundaryNode is the virtual node id used for single-detector (boundary)
// edges in the decoding graph.
const BoundaryNode int32 = -1

// Edge is one decoding-graph edge: an error class flipping detectors U and V
// (V == BoundaryNode for boundary edges) with probability P, matching weight
// W = ln((1-P)/P), and logical mask Obs.
type Edge struct {
	U, V int32
	P    float64
	W    float64
	Obs  bool
}

// GraphStats reports diagnostics from graph extraction.
type GraphStats struct {
	Edges            int
	BoundaryEdges    int
	DecomposedOK     int // multi-detector mechanisms decomposed into known edges
	DecomposedDirty  int // fallback decompositions (footprint had no exact cover)
	AmbiguousClasses int // edges whose two logical classes both carried mass
	AmbiguousMass    float64
}

// Graph is the matchable decoding graph extracted from a Model.
type Graph struct {
	NumNodes int
	Edges    []Edge
	// Adj[v] lists edge indices incident to node v (boundary edges appear
	// only in their real endpoint's list).
	Adj   [][]int32
	Stats GraphStats
}

type edgeKey struct{ u, v int32 }

// GraphStructure is the noise-independent half of a decoding graph: the
// candidate 1- and 2-detector edge topology (including boundary assignment),
// the decomposition of multi-detector mechanisms into elementary edges, and,
// per candidate edge, the list of mechanisms feeding each logical class. It
// depends only on mechanism footprints — never on probabilities — so one
// GraphStructure serves every noise scale of a sweep; Weight materializes
// the weighted Graph for a particular Model in a single linear pass.
//
// Contract change from the pre-hoisting projection: the decomposition
// search labels elementary edges by their *structural* logical class (true
// only when every source carries the observable) rather than by whichever
// class holds more probability mass at the current scale — the old rule
// would have made the topology noise-dependent. On the rare ambiguous edge
// (both classes carry sources; counted by GraphStats.AmbiguousClasses) a
// multi-detector mechanism's mass can therefore land in the other class
// than it did pre-hoisting, shifting that edge's Obs. Materialized edge
// probabilities and weights are unchanged, and the final Edge.Obs is still
// the probability-majority class.
//
// A GraphStructure is immutable after construction and safe for concurrent
// use.
type GraphStructure struct {
	NumNodes int
	numMechs int

	// Candidate edges sorted by (U, V), V == BoundaryNode for boundary
	// edges, with P, W and Obs zero: the template Weight copies and fills.
	cand []Edge

	// Sources in CSR form: mechanism srcMech[k] contributes its probability
	// to logical class srcObs[k] of edge i, for k in [srcOff[i],
	// srcOff[i+1]), in mechanism processing order.
	srcMech []int32
	srcObs  []bool
	srcOff  []int32

	// Edge classes: edges whose ordered (mechanism class, observable)
	// source lists are equal weigh the same in every Model reweighted from
	// the backing Structure. edgeClass[i] is edge i's class and classRep[c]
	// the first edge of class c, whose sources Weight folds for the whole
	// class. Topologies derived from hand-assembled models class edges by
	// their (mechanism, observable) lists instead, which is exact for any
	// probabilities.
	edgeClass []int32
	classRep  []int32
	// mechClass is the Structure's mechanism class of each mechanism and
	// mechRep[c] the first mechanism of class c; Weight checks a model
	// against them before it trusts the edge classes. Nil when every
	// mechanism is its own class.
	mechClass []int32
	mechRep   []int32

	// adj is the candidate-edge adjacency, shared read-only by every
	// weighted Graph in which no candidate edge dropped to zero probability
	// (the normal case for engine sweeps, where candidate index == edge
	// index). Weighted graphs that do drop edges rebuild their own.
	adj [][]int32

	decomposedOK, decomposedDirty int
}

// NumEdges returns the candidate edge count (edges whose probability folds
// to zero at a given weighting are dropped from the materialized Graph).
func (gs *GraphStructure) NumEdges() int { return len(gs.cand) }

// edgeAcc accumulates one candidate edge's mechanism sources during
// topology construction.
type edgeAcc struct {
	mechs    []int32
	classes  []bool
	hasTrue  bool
	hasFalse bool
}

// buildGraphStructure derives the candidate decoding-graph topology from
// mechanism footprints. Elementary mechanisms (1 or 2 detectors) define the
// edge set directly; larger footprints are decomposed over it, preferring
// exact covers whose structural logical masks XOR to the mechanism's. An
// edge's structural mask is unambiguous-class-or-false: true only when every
// source seen so far carries the observable. mechClass maps each mechanism
// to its Structure class, so that edges fed alike share a class; nil puts
// every mechanism in its own class.
func buildGraphStructure(numDets, numMechs int, footprint func(int) ([]int32, bool), mechClass []int32) (*GraphStructure, error) {
	acc := make(map[edgeKey]*edgeAcc)
	var order []edgeKey
	add := func(u, v int32, mech int32, class bool) {
		if v != BoundaryNode && u > v {
			u, v = v, u
		}
		k := edgeKey{u, v}
		a, ok := acc[k]
		if !ok {
			a = &edgeAcc{}
			acc[k] = a
			order = append(order, k)
		}
		a.mechs = append(a.mechs, mech)
		a.classes = append(a.classes, class)
		if class {
			a.hasTrue = true
		} else {
			a.hasFalse = true
		}
	}
	label := func(u, v int32) (bool, bool) {
		if v != BoundaryNode && u > v {
			u, v = v, u
		}
		a, ok := acc[edgeKey{u, v}]
		if !ok {
			return false, false
		}
		return a.hasTrue && !a.hasFalse, true
	}

	gs := &GraphStructure{NumNodes: numDets, numMechs: numMechs}

	// Pass 1: elementary mechanisms define the edge set.
	var big []int32
	for i := 0; i < numMechs; i++ {
		dets, obs := footprint(i)
		for _, d := range dets {
			if d < 0 || int(d) >= numDets {
				return nil, fmt.Errorf("dem: mechanism %d detector %d out of range [0, %d)", i, d, numDets)
			}
		}
		switch len(dets) {
		case 0:
			gs.decomposedDirty++ // no matchable footprint; dropped
		case 1:
			add(dets[0], BoundaryNode, int32(i), obs)
		case 2:
			add(dets[0], dets[1], int32(i), obs)
		default:
			big = append(big, int32(i))
		}
	}

	// Pass 2: decompose larger footprints over the elementary edge set.
	for _, mi := range big {
		dets, obs := footprint(int(mi))
		parts, obsOK := decompose(dets, obs, label)
		if parts == nil {
			// Fallback: pair consecutive detectors; attach the observable
			// mask to the first pair.
			gs.decomposedDirty++
			for i := 0; i+1 < len(dets); i += 2 {
				add(dets[i], dets[i+1], mi, obs && i == 0)
			}
			if len(dets)%2 == 1 {
				add(dets[len(dets)-1], BoundaryNode, mi, false)
			}
			continue
		}
		if obsOK {
			gs.decomposedOK++
		} else {
			gs.decomposedDirty++
		}
		for _, part := range parts {
			cls, _ := label(part[0], part[1])
			add(part[0], part[1], mi, cls)
		}
	}

	// Flatten to CSR in sorted edge order.
	slices.SortFunc(order, func(a, b edgeKey) int {
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		return cmp.Compare(a.v, b.v)
	})
	gs.srcOff = make([]int32, 1, len(order)+1)
	for _, k := range order {
		a := acc[k]
		gs.cand = append(gs.cand, Edge{U: k.u, V: k.v})
		gs.srcMech = append(gs.srcMech, a.mechs...)
		gs.srcObs = append(gs.srcObs, a.classes...)
		gs.srcOff = append(gs.srcOff, int32(len(gs.srcMech)))
	}

	// Candidate adjacency, hoisted so Weight can share it across noise
	// scales instead of rebuilding per-node lists per scale.
	gs.adj = make([][]int32, numDets)
	for i, e := range gs.cand {
		gs.adj[e.U] = append(gs.adj[e.U], int32(i))
		if e.V != BoundaryNode {
			gs.adj[e.V] = append(gs.adj[e.V], int32(i))
		}
	}
	gs.internEdgeClasses(mechClass)
	return gs, nil
}

// internEdgeClasses groups candidate edges by their ordered (mechanism
// class, observable) source lists.
func (gs *GraphStructure) internEdgeClasses(mechClass []int32) {
	if mechClass != nil {
		gs.mechClass = mechClass
		for i, c := range mechClass {
			if int(c) == len(gs.mechRep) {
				gs.mechRep = append(gs.mechRep, int32(i))
			}
		}
	} else {
		mechClass = make([]int32, gs.numMechs)
		for i := range mechClass {
			mechClass[i] = int32(i)
		}
	}
	key := func(k int32) uint64 {
		if gs.srcObs[k] {
			return uint64(mechClass[gs.srcMech[k]]) | 1<<32
		}
		return uint64(mechClass[gs.srcMech[k]])
	}
	gs.edgeClass, gs.classRep = groupBy(len(gs.cand), func(i int) uint64 {
		h := uint64(fnvOffset)
		for k := gs.srcOff[i]; k < gs.srcOff[i+1]; k++ {
			h = fnvMix(h, key(k))
		}
		return h
	}, func(a, b int) bool {
		la, lb := gs.srcOff[a], gs.srcOff[b]
		if gs.srcOff[a+1]-la != gs.srcOff[b+1]-lb {
			return false
		}
		for ; la < gs.srcOff[a+1]; la, lb = la+1, lb+1 {
			if key(la) != key(lb) {
				return false
			}
		}
		return true
	})
}

// edgeWeight is one edge class's weighting at one noise scale.
type edgeWeight struct {
	p, w    float64
	minMass float64 // the lighter logical class's mass, when ambiguous
	obs     bool
	amb     bool
}

// Weight materializes the weighted Graph for model m, which must carry the
// same mechanism list the topology was derived from: WeightInto on a new
// Graph.
func (gs *GraphStructure) Weight(m *Model) (*Graph, error) {
	g := &Graph{}
	if err := gs.WeightInto(m, g); err != nil {
		return nil, err
	}
	return g, nil
}

// WeightInto writes the weighted Graph for model m into g, a graph the
// caller owns, reusing g's edge slice; it never writes into the
// topology's shared adjacency, and a weighing that drops edges builds g a
// fresh one. Per edge class it XOR-folds the class's first edge's source mechanisms into
// the two logical classes and converts the total to a weight once; every
// edge then copies its class's values, and edges whose total probability
// folds to zero are dropped. Edge classes are exact only while m assigns
// equal probabilities within each mechanism class, as every Reweight does;
// a model edited mechanism by mechanism is weighted edge by edge instead.
// This is the only per-noise-scale graph work left once the topology is
// hoisted. On error g is unchanged.
func (gs *GraphStructure) WeightInto(m *Model, g *Graph) error {
	if m.NumDets != gs.NumNodes || len(m.Mechs) != gs.numMechs {
		return fmt.Errorf("dem: model with %d detectors / %d mechanisms does not match graph structure (%d / %d)",
			m.NumDets, len(m.Mechs), gs.NumNodes, gs.numMechs)
	}
	g.NumNodes = gs.NumNodes
	g.Stats = GraphStats{DecomposedOK: gs.decomposedOK, DecomposedDirty: gs.decomposedDirty}
	edgeClass, classRep := gs.edgeClass, gs.classRep
	if !gs.classesHold(m) {
		edgeClass = make([]int32, len(gs.cand))
		for i := range edgeClass {
			edgeClass[i] = int32(i)
		}
		classRep = edgeClass
	}
	classes := make([]edgeWeight, len(classRep))
	for c, r := range classRep {
		var pFalse, pTrue float64
		for k := gs.srcOff[r]; k < gs.srcOff[r+1]; k++ {
			p := m.Mechs[gs.srcMech[k]].P
			if gs.srcObs[k] {
				pTrue = xorProb(pTrue, p)
			} else {
				pFalse = xorProb(pFalse, p)
			}
		}
		ew := &classes[c]
		if ew.p = xorProb(pFalse, pTrue); ew.p > 0 {
			ew.w = WeightOf(ew.p)
			ew.obs = pTrue > pFalse
			ew.amb = pTrue > 0 && pFalse > 0
			ew.minMass = math.Min(pTrue, pFalse)
		}
	}

	// Copy the candidate template, fill each edge from its class and
	// compact away the dropped ones, summing the ambiguous mass in edge
	// order.
	g.Edges = append(g.Edges[:0], gs.cand...)
	n := 0
	for i, c := range edgeClass {
		ew := &classes[c]
		if ew.p <= 0 {
			continue
		}
		if ew.amb {
			g.Stats.AmbiguousClasses++
			g.Stats.AmbiguousMass += ew.minMass
		}
		e := &g.Edges[n]
		if n != i {
			*e = g.Edges[i]
		}
		e.P, e.W, e.Obs = ew.p, ew.w, ew.obs
		if e.V == BoundaryNode {
			g.Stats.BoundaryEdges++
		}
		n++
	}
	g.Edges = g.Edges[:n]
	g.Stats.Edges = len(g.Edges)
	if len(g.Edges) == len(gs.cand) {
		// No candidate dropped: candidate index == edge index, so the
		// hoisted adjacency applies verbatim. Shared read-only.
		g.Adj = gs.adj
	} else {
		g.Adj = make([][]int32, g.NumNodes)
		for ei := range g.Edges {
			e := &g.Edges[ei]
			g.Adj[e.U] = append(g.Adj[e.U], int32(ei))
			if e.V != BoundaryNode {
				g.Adj[e.V] = append(g.Adj[e.V], int32(ei))
			}
		}
	}
	return nil
}

// classesHold reports whether m gives every mechanism its class
// representative's probability, so that the edge classes weigh alike.
func (gs *GraphStructure) classesHold(m *Model) bool {
	for i, c := range gs.mechClass {
		if m.Mechs[i].P != m.Mechs[gs.mechRep[c]].P {
			return false
		}
	}
	return true
}

// GraphStructure returns the hoisted decoding-graph topology backing this
// model: the Structure's shared, build-once instance when the model came
// from Reweight (or Build), or a freshly derived one for hand-assembled
// models.
func (m *Model) GraphStructure() (*GraphStructure, error) {
	if m.st != nil {
		return m.st.Graph()
	}
	return buildGraphStructure(m.NumDets, len(m.Mechs), func(i int) ([]int32, bool) {
		return m.Mechs[i].Dets, m.Mechs[i].Obs
	}, nil)
}

// DecodingGraph projects the model onto a graph of 1- and 2-detector error
// classes: the hoisted topology (built once per Structure) weighted with
// this model's mechanism probabilities.
func (m *Model) DecodingGraph() (*Graph, error) {
	gs, err := m.GraphStructure()
	if err != nil {
		return nil, err
	}
	return gs.Weight(m)
}

// decompose searches for a partition of dets into known elementary edges
// (pairs, or singletons matched to the boundary) whose logical masks XOR to
// obs. It returns the parts (each {u, v} with v possibly BoundaryNode) and
// whether the observable constraint was met; parts == nil means no cover by
// known edges exists at all.
func decompose(dets []int32, obs bool, known func(u, v int32) (bool, bool)) (parts [][2]int32, obsOK bool) {
	var best [][2]int32
	bestOK := false
	var cur [][2]int32

	var rec func(remaining []int32, acc bool)
	rec = func(remaining []int32, acc bool) {
		if bestOK {
			return
		}
		if len(remaining) == 0 {
			if best == nil || acc == obs {
				best = append([][2]int32(nil), cur...)
				bestOK = acc == obs
			}
			return
		}
		d0 := remaining[0]
		// Pair d0 with each later detector over a known edge.
		for j := 1; j < len(remaining); j++ {
			dj := remaining[j]
			eObs, ok := known(d0, dj)
			if !ok {
				continue
			}
			rest := make([]int32, 0, len(remaining)-2)
			rest = append(rest, remaining[1:j]...)
			rest = append(rest, remaining[j+1:]...)
			cur = append(cur, [2]int32{d0, dj})
			rec(rest, acc != eObs)
			cur = cur[:len(cur)-1]
		}
		// Or send d0 to the boundary.
		if eObs, ok := known(d0, BoundaryNode); ok {
			cur = append(cur, [2]int32{d0, BoundaryNode})
			rec(remaining[1:], acc != eObs)
			cur = cur[:len(cur)-1]
		}
	}
	rec(dets, false)
	return best, bestOK
}
