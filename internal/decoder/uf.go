package decoder

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dem"
)

// UnionFind is the weighted-growth union-find decoder. Odd clusters of
// detection events grow along the decoding graph's edges at equal weight
// rate; clusters merge when an edge saturates, and stop being active when
// their defect parity is even or they touch the boundary. A peeling pass
// over the grown support then selects the correction edges, whose logical
// masks XOR into the observable prediction.
//
// All per-decode state is epoch-stamped: a node or edge is implicitly in
// its default state unless its stamp matches the current decode, so a shot
// costs time proportional to the grown region, not the graph size, and the
// steady state allocates nothing.
type UnionFind struct {
	g *dem.Graph
	n int // real nodes; node n is the virtual boundary
	// All per-edge state — capacity, endpoints, growth, stamps, cached
	// roots — lives in one flat record array so the growth loops touch one
	// cache line per edge instead of one per field (see ufEdge).
	ue []ufEdge

	// Reusable per-decode state, valid only where the epoch matches.
	epoch uint64
	ep32  uint32 // uint32(epoch); node and edge stamps compare against this
	// All per-node state the growth loops touch lives in one flat record
	// array (see ufNode); only the per-root slice lists stay separate.
	un        []ufNode
	edgeList  [][]int32 // per-root candidate growth edges
	activeGen uint32
	bfsOrder  []int32
	bfsEdge   []int32 // edge used to reach node in the forest
	bfsPar    []int32
	active    []int32 // this round's growing roots, by smallest event id
	next      []int32 // the next round's active list, built at round end
	touched   []int32 // roots a union produced this round (may repeat)
	queue     []int32
	satBuf    []int32 // one node's saturated edges during peel
	satBound  []int32 // saturated boundary edges of this decode
	events    []int   // current shot, ascending
	sorted    []int   // reusable buffer for unsorted caller input
	// Per-root growable-edge cache: seg[r] is root r's growable edge ids as
	// of r's last slack scan, minAt[r] the growth clock at which the
	// smallest per-unit slack found then reaches zero, argmin[r] the edge
	// holding it, and scanEpoch its validity (0 once stale). A clean root
	// (scanned this decode, not invalidated since) need not rescan: every
	// growable edge's per-unit slack has fallen by exactly the summed growth
	// since the scan, so the cached minimum just shifts with the clock — the
	// skip that replaces the per-round growEdges rebuild. A merge changes a
	// neighbor's slack only through a shared edge whose far side changed
	// growth status, so validity tracks status changes (see union). The ids
	// are enough, though a clean root's far ends may have merged since its
	// scan: the edge records' ra/rb name a root each end's cluster had when
	// the edge was last resolved, and by the time a walk reads them they are
	// live wherever it matters (see endRound).
	//
	// seg[r] is a view of the candidate list the scan compacted in place, so
	// a scan writes each kept id once. Later appends to a root's list land
	// past the view, and a list that union hands to a dead root is not
	// written again this decode, so the view holds until r rescans.
	seg      [][]int32
	cumDelta int64 // summed minDelta growth this decode
	// slot[ei] is edge ei's position in its endpoints' adjacency lists,
	// capped at satWide: saturation sets that bit of each endpoint's
	// satMask, so peel expands only a node's saturated slots, in adjacency
	// order. The boundary side's slot is unused (peel reaches the
	// boundary's edges through satBound).
	slot []ufSlot
	// slotAdj is the adjacency slot was built from. It depends on topology
	// only, so load keeps the table when a rebind brings the same
	// adjacency slice and the same endpoints: every noise scale of one
	// hoisted graph topology, which is most rebinds of a sweep worker that
	// walks one distance's rates.
	slotAdj [][]int32
	// act[v] is the last activeGen in which root v was collected into the
	// active list. It sits apart from ufNode so the walks' and scans' "is
	// the far side growing" check reads a small dense array, not the far
	// node's record.
	act []uint32
	// deadAt[v] is the epoch of the last decode in which root v merged into
	// another cluster: the dense form of "parent != v" for cached-root
	// liveness checks.
	deadAt []uint32

	stats DecoderStats
}

// ufSlot is an edge's adjacency slot at each endpoint (see UnionFind.slot).
type ufSlot struct{ u, v uint8 }

// satWide is the last satMask bit. It stands for every adjacency slot from
// satWide on, so a node of any degree peels exactly: slots below it expand
// by bit, and a set satWide bit makes peel check the remaining slots' edges
// one by one. Decoding graphs from circuit noise stay below it (degree 12
// at d=11).
const satWide = 15

// ufNode packs the per-node fields the growth loops and find touch into
// one 72-byte record, laid out hot-first: the fields a walk or scan reads
// about an active far side (appliedCum, ordAt) and find's parent/epoch pair
// sit in the first 32 bytes. The checks made on every far side — is it
// growing, has it merged away — read the dense stamp arrays act and
// deadAt instead, so a far node outside every cluster costs no record
// load at all.
//
// Deferred growth application: a round's grow pass walks only the
// clusters that can saturate an edge this round (effective slack ==
// minDelta) plus any cluster a union touched. Every other active
// cluster's per-edge contribution is uniform (minDelta per round per
// seg edge), so it is reconstructed from the growth clock and applied
// when the cluster next walks or rescans: appliedCum is the clock
// through which the edges' grown includes this root's side, effR the
// round's effective slack, ordAt the position in this round's active
// order (skipped clusters' contributions are credited virtually by order
// in saturation checks, so the eager schedule's saturation order — and
// the golden-pinned predictions — are reproduced exactly), and
// forcedAt/walkedAt mark union-touched and already-walked roots.
//
// Union-find and the incremental active list: rank is the union-by-rank
// rank, 0 for a node that absorbed nothing this decode; minEv, valid only
// when rank > 0, is the cluster's smallest event id, the active list's
// sort key. Both are written only by union, so a shot whose clusters never
// merge pays nothing for them. minAt and argmin are the cached slack
// minimum (see UnionFind.seg and argminRose).
//
// epoch/scanEpoch/appliedEpoch are the low 32 bits of the decoder epoch
// (bumpEpoch clears them on wrap); forcedAt/walkedAt compare against
// activeGen, which Decode rewinds long before it can wrap. satMask holds
// the node's saturated adjacency slots for peel (see UnionFind.slot).
type ufNode struct {
	appliedCum   int64
	parent       int32
	ordAt        int32
	appliedEpoch uint32
	parity       bool // defect parity per root
	boundary     bool // root touches the virtual boundary
	defect       bool
	seeded       bool // node's adjacency already added to its cluster
	visited      bool
	rank         int8
	satMask      uint16
	epoch        uint32 // lazy-reset stamp for the whole record
	scanEpoch    uint32 // epoch of the last slack scan; 0 marks the cache stale
	forcedAt     uint32
	walkedAt     uint32
	minAt        int64
	argmin       int32
	minEv        int32
	effR         int64
}

// ufEdge packs every per-edge field the growth loops touch into one
// 40-byte record, so a scan or walk costs one cache line per edge where
// the parallel-array layout cost up to seven. The record holds:
//
//   - grown/cap: growth progress and the integer capacity. Saturation is
//     grown == cap — the deferred-growth invariant (a cluster whose
//     effective slack exceeds minDelta cannot saturate an edge that
//     round) keeps every non-saturating write strictly below cap, so no
//     separate flag is needed.
//   - ra/rb + rootEpoch: the cross-round root cache — valid while both
//     cached nodes are still cluster roots (union stamps a merged root in
//     deadAt), turning per-round re-resolution into two dense loads.
//   - u/v: the endpoints, with the boundary mapped to virtual node n.
//   - epoch: the lazy-reset stamp for grown.
//
// The stamps are the low 32 bits of the decoder epoch; bumpEpoch clears
// them on wrap, so a stale stamp can never alias a live one.
type ufEdge struct {
	grown     int64
	cap       int64
	ra, rb    int32
	u, v      int32
	rootEpoch uint32
	epoch     uint32
}

// capScale is the integer capacity of the lightest edge: load scales
// every float weight by capScale/minW, so relative weights keep about six
// significant digits.
const capScale = 1 << 20

// NewUnionFind builds a union-find decoder over g: Rebind on a zero value.
func NewUnionFind(g *dem.Graph) *UnionFind {
	u := &UnionFind{}
	u.Rebind(g)
	return u
}

// Rebind points the decoder at g, whatever its shape. Every per-node and
// per-edge array is resliced within its capacity and grows only past it,
// keeping the per-root candidate lists, so a worker that alternates
// distances reallocates nothing once it has seen the largest graph. The
// epoch-stamped scratch needs no reset: the epoch bump makes every stamp
// stale, and the wrap clear in bumpEpoch covers each array's capacity.
// Rebind always succeeds and reports true, so callers written against its
// earlier form, which refused a graph of another shape, never rebuild.
func (u *UnionFind) Rebind(g *dem.Graph) bool {
	// The slot table depends on the adjacency alone, which for a graph
	// from dem.GraphStructure is a function of the node count and the
	// edges' endpoints in order (see load).
	keepSlots := len(g.Adj) > 0 && len(u.slotAdj) == len(g.Adj) && &u.slotAdj[0] == &g.Adj[0]
	n := g.NumNodes
	u.g, u.n = g, n
	u.ue = grown(u.ue, len(g.Edges))
	u.slot = grown(u.slot, len(g.Edges))
	u.un = grown(u.un, n+1)
	u.act = grown(u.act, n+1)
	u.deadAt = grown(u.deadAt, n+1)
	u.edgeList = grown(u.edgeList, n+1)
	u.seg = grown(u.seg, n+1)
	u.bfsEdge = grown(u.bfsEdge, n+1)
	u.bfsPar = grown(u.bfsPar, n+1)
	u.load(g, keepSlots)
	// Invalidate the cross-decode edge-root cache: the stamps reference the
	// previous graph's decodes, and epoch monotonicity is all that guards
	// them.
	u.bumpEpoch()
	return true
}

// load rebuilds every table the decoder hoists from g: the integer
// capacities, the flat endpoints and the adjacency slots. The slots are
// kept only when keepSlots says g's adjacency is the slice they were built
// from and no edge changed endpoints: every noise
// scale of one hoisted graph topology, which is most rebinds of a sweep
// worker that walks one distance's rates.
func (u *UnionFind) load(g *dem.Graph, keepSlots bool) {
	minW := math.Inf(1)
	for i := range g.Edges {
		if w := g.Edges[i].W; w > 0 && w < minW {
			minW = w
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	for i := range g.Edges {
		c := int64(math.Round(g.Edges[i].W / minW * capScale))
		if c < 1 {
			c = 1
		}
		u.ue[i].cap = c
		v := g.Edges[i].V
		if v == dem.BoundaryNode {
			v = int32(u.n)
		}
		if u.ue[i].u != g.Edges[i].U || u.ue[i].v != v {
			keepSlots = false
		}
		u.ue[i].u = g.Edges[i].U
		u.ue[i].v = v
	}
	if keepSlots {
		return
	}
	u.slotAdj = g.Adj
	for v, adj := range g.Adj {
		for k, ei := range adj {
			sl := uint8(min(k, satWide))
			if g.Edges[ei].U == int32(v) {
				u.slot[ei].u = sl
			} else {
				u.slot[ei].v = sl
			}
		}
	}
}

// bumpEpoch starts a new decode (or rebind) generation. Edge stamps hold
// only the low 32 bits of the epoch; on wrap they are cleared and the
// zero value skipped, so a stamp from 2^32 generations ago can never read
// as current. The clears run over each array's capacity: an entry past the
// current graph's length keeps its stamp until a later Rebind grows into
// it, and must not read as live then.
func (u *UnionFind) bumpEpoch() {
	u.epoch++
	if uint32(u.epoch) == 0 {
		ue, un := u.ue[:cap(u.ue)], u.un[:cap(u.un)]
		for i := range ue {
			ue[i].epoch = 0
			ue[i].rootEpoch = 0
		}
		for i := range un {
			un[i].epoch = 0
			un[i].scanEpoch = 0
			un[i].appliedEpoch = 0
		}
		clear(u.deadAt[:cap(u.deadAt)])
		u.epoch++
	}
	u.ep32 = uint32(u.epoch)
	// activeGen stamps (act, forcedAt, walkedAt) are compared within a
	// decode only; rewind the generation counter between decodes long
	// before it can wrap. A single decode advances it by at most a few per
	// round, bounded by the convergence guard — nowhere near 2^30.
	if u.activeGen >= 1<<30 {
		clear(u.act[:cap(u.act)])
		un := u.un[:cap(u.un)]
		for i := range un {
			un[i].forcedAt = 0
			un[i].walkedAt = 0
		}
		u.activeGen = 0
	}
}

// Name implements Decoder.
func (u *UnionFind) Name() string { return "union-find" }

// DecoderStats implements StatsSource.
func (u *UnionFind) DecoderStats() DecoderStats { return u.stats }

// DecodeBatch implements BatchDecoder. Zero per-shot heap allocations in
// steady state.
func (u *UnionFind) DecodeBatch(b *Batch, out []bool) error {
	return decodeSerial(u, b, out)
}

// ensureNode lazily resets node v to its default state for this decode.
func (u *UnionFind) ensureNode(v int32) {
	if u.un[v].epoch != u.ep32 {
		u.resetNode(v)
	}
}

// resetNode puts node v in its default state for this decode: its own
// singleton root, no defect, no saturated adjacency. Its candidate list is
// reset where it is first filled (seedAdjacency), not here.
func (u *UnionFind) resetNode(v int32) {
	nd := &u.un[v]
	nd.epoch = u.ep32
	nd.parent = v
	nd.rank = 0
	nd.parity = false
	nd.boundary = v == int32(u.n)
	nd.defect = false
	nd.seeded = v == int32(u.n) // the virtual boundary has no adjacency
	nd.visited = false
	nd.satMask = 0
}

// ensureEdge lazily resets edge ei's growth state for this decode.
func (u *UnionFind) ensureEdge(ei int32) {
	e := &u.ue[ei]
	if e.epoch == u.ep32 {
		return
	}
	e.epoch = u.ep32
	e.grown = 0
}

// find returns v's cluster root, resetting v first if this decode has not
// touched it (a reset node is its own root).
func (u *UnionFind) find(v int32) int32 {
	if u.un[v].epoch != u.ep32 {
		u.resetNode(v)
		return v
	}
	for u.un[v].parent != v {
		u.un[v].parent = u.un[u.un[v].parent].parent
		v = u.un[v].parent
	}
	return v
}

// dead reports whether node v merged into another cluster this decode, so
// a cached root v no longer is one. A node this decode has not touched is
// its own root, whatever its stale record says.
func (u *UnionFind) dead(v int32) bool {
	return u.deadAt[v] == u.ep32
}

// seedAdjacency makes node v's incident edges its candidate list, resetting
// each edge's growth state on first sight this decode. Only a singleton root
// is ever seeded (a node is seeded before it first merges), so its list —
// stale from an earlier decode until now — is replaced, not extended.
func (u *UnionFind) seedAdjacency(v int32) {
	list := u.edgeList[v][:0]
	for _, ei := range u.g.Adj[v] {
		u.ensureEdge(ei)
		list = append(list, ei)
	}
	u.edgeList[v] = list
	u.un[v].seeded = true
}

// Decode implements Decoder. The events are a set: they are processed in
// ascending order whatever order the caller passes (an unsorted list is
// sorted into a reusable buffer), so the prediction depends only on which
// detectors fired.
func (u *UnionFind) Decode(events []int) (bool, error) {
	if len(events) == 0 {
		return false, nil
	}
	if len(events)%2 == 1 && u.g.Stats.BoundaryEdges == 0 {
		return false, fmt.Errorf("union-find: odd event count with no boundary")
	}
	if !slices.IsSorted(events) {
		u.sorted = append(u.sorted[:0], events...)
		slices.Sort(u.sorted)
		events = u.sorted
	}
	n := u.n
	u.bumpEpoch()
	u.events = events
	u.satBound = u.satBound[:0]
	u.ensureNode(int32(n))
	u.edgeList[n] = u.edgeList[n][:0] // the boundary is never seeded but can root a union
	// Round one's active list is every event, each its own cluster; later
	// rounds' lists are built incrementally by endRound.
	u.cumDelta = 0
	u.touched = u.touched[:0]
	u.activeGen++
	u.next = u.next[:0]
	for _, d := range events {
		u.ensureNode(int32(d))
		u.un[d].defect = true
		u.un[d].parity = true
		u.enterActive(int32(d))
	}
	u.active, u.next = u.next, u.active
	// Seed each event's candidate edges and scan them for round one: the
	// round's scan phase then finds every event clean.
	var scans int64
	for _, d := range events {
		u.firstScan(int32(d))
		scans += int64(len(u.g.Adj[d]))
	}

	var rounds int64
	for iter := 0; ; iter++ {
		if iter > 4*len(u.g.Edges)+16 {
			return false, fmt.Errorf("union-find: growth failed to converge")
		}
		if len(u.active) == 0 {
			break
		}
		rounds++
		// Minimum slack per growth unit across all candidate edges. A clean
		// root — scanned this decode, not invalidated since — reuses its
		// cached segment: every growable edge of such a root grew in each
		// round since the scan and its far side kept its growth status, so
		// per-unit slack fell by exactly that round's minDelta and the
		// cached minimum shifted with the growth clock. Only stale roots
		// rescan.
		var minDelta int64 = math.MaxInt64
		for _, r := range u.active {
			nd := &u.un[r]
			if nd.scanEpoch == u.ep32 && !u.argminRose(r, nd) {
				eff := nd.minAt
				if eff != math.MaxInt64 {
					eff -= u.cumDelta
				}
				nd.effR = eff
				if eff < minDelta {
					minDelta = eff
				}
				continue
			}
			// Apply this root's deferred growth to its old segment before
			// rebuilding it: the rounds it skipped owed each unsaturated
			// edge a uniform amount from this side. (A stale root's old
			// edges are never internal — becoming internal requires this
			// cluster itself to have merged, and merge sides are
			// force-walked, resetting the deficit that round.)
			if nd.appliedEpoch == u.ep32 {
				if pend := u.cumDelta - nd.appliedCum; pend > 0 {
					for _, ei := range u.seg[r] {
						if e := &u.ue[ei]; e.grown != e.cap {
							e.grown += pend
						}
					}
				}
			}
			scans += int64(len(u.edgeList[r]))
			kept := u.edgeList[r][:0]
			// Track the ends=1 and ends=2 minima separately so the ceiling
			// division happens once per scan, not once per edge.
			var min1, min2 int64 = math.MaxInt64, math.MaxInt64
			var arg2 int32 = -1
			for _, ei := range u.edgeList[r] {
				e := &u.ue[ei]
				c := e.cap
				if e.grown == c {
					continue // saturated
				}
				ra, rb := e.ra, e.rb
				if e.rootEpoch != u.ep32 {
					ra, rb = u.find(e.u), u.find(e.v)
					e.ra, e.rb, e.rootEpoch = ra, rb, u.ep32
				} else if u.dead(ra) || u.dead(rb) {
					// A cached root of this decode still lies in its
					// endpoint's cluster, nearer the root.
					ra, rb = u.find(ra), u.find(rb)
					e.ra, e.rb = ra, rb
				}
				if ra == rb {
					continue // internal edge
				}
				kept = append(kept, ei)
				other := rb
				if ra != r {
					other = ra
				}
				remain := c - e.grown
				// In the scan phase the live roots that grow are exactly
				// the active ones (endRound collects every one of them).
				// A growing side's contribution may still be deferred;
				// credit it from the growth clock so remain reflects the
				// fully-applied value.
				if u.act[other] == u.activeGen {
					remain -= u.cumDelta - u.un[other].appliedCum
					if remain < min2 {
						min2, arg2 = remain, ei // both sides grow
					}
				} else if remain < min1 {
					min1 = remain
				}
			}
			u.edgeList[r] = kept
			u.seg[r] = kept
			if mu := u.settleScan(nd, min1, min2, arg2); mu < minDelta {
				minDelta = mu
			}
		}
		if minDelta == math.MaxInt64 {
			return false, fmt.Errorf("union-find: active cluster with no growable edges")
		}
		// Grow and merge. Only clusters whose effective slack equals
		// minDelta can saturate an edge this round; every other cluster's
		// walk in the eager schedule was pure bookkeeping (grown += delta
		// on each seg edge), so it is deferred via appliedCum and the walk
		// skipped. Walks that do happen run at the cluster's position in
		// active order and credit skipped earlier clusters' contributions
		// virtually (the miss term), so each saturation check sees exactly
		// the value the eager schedule saw at the same position — the
		// saturation and union order, and with them the golden-pinned
		// predictions, are reproduced bit for bit. Union-touched clusters
		// are force-walked (at their position, or after the loop) so the
		// round closes with their edges fully applied. Within the round a
		// walk reads the edges' cached round-start roots, as the eager
		// schedule did.
		merged := false
		walkSeg := func(r, myOrd int32) {
			nd := &u.un[r]
			nd.walkedAt = u.activeGen
			add := u.cumDelta + minDelta - nd.appliedCum
			nd.appliedCum = u.cumDelta + minDelta
			// Every segment edge's cached roots are r and the far side's
			// root as of r's scan; self is r's cluster root now.
			self := r
			if merged {
				self = u.find(r)
			}
			for _, ei := range u.seg[r] {
				e := &u.ue[ei]
				if e.grown == e.cap {
					continue // saturated
				}
				ra, rb := e.ra, e.rb
				other := rb
				if ra != r {
					other = ra
				}
				if merged {
					// Only a segment whose cached root died can have become
					// internal; two live distinct roots still are the
					// endpoints' roots.
					far := other
					if u.dead(far) {
						far = u.find(far)
					}
					if far == self {
						continue
					}
				}
				g := e.grown + add
				// The other side's share not yet in grown: its deferred
				// rounds, plus this round's delta if its position already
				// passed (walked or not — the eager schedule had grown the
				// edge from that side by now either way; if it walked, the
				// negative deficit cancels the credit).
				var miss int64
				if u.act[other] == u.activeGen {
					o := &u.un[other]
					miss = u.cumDelta - o.appliedCum
					if o.ordAt < myOrd {
						miss += minDelta
					}
				}
				if c := e.cap; g+miss >= c {
					e.grown = c // grown == cap is the saturation mark
					if e.v == int32(n) {
						u.satBound = append(u.satBound, ei)
					}
					u.union(ra, rb)
					u.markSat(ei)
					merged = true
					self = u.find(r)
				} else {
					e.grown = g
				}
			}
		}
		for ai, r := range u.active {
			if u.un[r].effR == minDelta || u.un[r].forcedAt == u.activeGen {
				walkSeg(r, int32(ai))
			}
		}
		if merged {
			// Clusters a union touched after their position was passed:
			// apply their deferred share now. Their effective slack exceeds
			// minDelta, so these walks never saturate anything.
			for ai, r := range u.active {
				if u.un[r].forcedAt == u.activeGen && u.un[r].walkedAt != u.activeGen {
					walkSeg(r, int32(ai))
				}
			}
		}
		u.cumDelta += minDelta
		u.endRound()
	}
	u.stats.UFGrowthRounds += rounds
	u.stats.UFEdgeScans += scans
	return u.peel()
}

// settleScan caches a finished slack scan's minimum per-unit slack in root
// nd — min1 over edges whose far side does not grow, min2 over those whose
// far side does (held by arg2) — and returns it. argmin is kept only when a
// both-grow edge holds the minimum: only then can a far side stopping raise
// it (see argminRose).
func (u *UnionFind) settleScan(nd *ufNode, min1, min2 int64, arg2 int32) int64 {
	mu, arg := min1, int32(-1)
	if min2 != math.MaxInt64 {
		if h := (min2 + 1) / 2; h < mu {
			mu, arg = h, arg2
		}
	}
	nd.minAt = mu
	if mu != math.MaxInt64 {
		nd.minAt += u.cumDelta
	}
	nd.argmin = arg
	nd.appliedCum = u.cumDelta
	nd.appliedEpoch = u.ep32
	nd.scanEpoch = u.ep32
	nd.effR = mu
	return mu
}

// firstScan seeds event d's adjacency as its candidate list and does its
// round-one slack scan in the same pass. Before any growth every node is
// its own root and every seeded edge is empty, so the scan needs neither
// find nor a far node's record: an edge's far side grows exactly when it
// is another event, which act already marks active, and the cached roots
// are the endpoints themselves. A far node that no growth reaches is never
// reset this decode, and nothing reads its stale record as state: growth
// status comes from act, liveness from deadAt, and find, union and peel
// reach a node only after resetting it.
func (u *UnionFind) firstScan(d int32) {
	list := u.edgeList[d][:0]
	var min1, min2 int64 = math.MaxInt64, math.MaxInt64
	var arg2 int32 = -1
	for _, ei := range u.g.Adj[d] {
		e := &u.ue[ei]
		e.epoch, e.grown = u.ep32, 0
		e.ra, e.rb, e.rootEpoch = e.u, e.v, u.ep32
		far := e.u
		if far == d {
			far = e.v
		}
		if far == d {
			continue // a self-loop is internal
		}
		list = append(list, ei)
		if u.act[far] == u.activeGen {
			if e.cap < min2 {
				min2, arg2 = e.cap, ei // both sides grow
			}
		} else if e.cap < min1 {
			min1 = e.cap
		}
	}
	u.edgeList[d] = list
	u.seg[d] = list
	nd := &u.un[d]
	nd.seeded = true
	u.settleScan(nd, min1, min2, arg2)
}

// union merges the clusters of a and b, the saturated edge's cached
// round-start roots. It marks both for a forced walk so their segments'
// deferred growth (plus this round's share) is applied before the round
// closes — exactly what the eager schedule's unconditional walk did for
// them.
func (u *UnionFind) union(a, b int32) {
	u.un[a].forcedAt = u.activeGen
	u.un[b].forcedAt = u.activeGen
	// A node joining a growing cluster contributes its own adjacency to the
	// cluster's candidate growth edges exactly once. An unseeded node never
	// merged, so it is its own root.
	for _, v := range [2]int32{a, b} {
		u.ensureNode(v)
		if !u.un[v].seeded {
			u.seedAdjacency(v)
			u.un[v].scanEpoch = 0 // new growth candidates invalidate the cached minimum
		}
	}
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		u.touched = append(u.touched, ra)
		return
	}
	if u.un[ra].rank < u.un[rb].rank {
		ra, rb = rb, ra
	}
	A, B := &u.un[ra], &u.un[rb]
	// A neighbor's per-unit slack on a shared edge depends on the far side
	// only through whether it grows (parity && !boundary), so only a side
	// whose status changes can move its neighbors' cached minima. A side
	// that starts growing lowers every shared edge's slack: its neighbors
	// all rescan. A side that stops growing can only raise shared slack, so
	// a neighbor's cached minimum stays exact unless its argmin edge is
	// shared; argminRose checks that one edge at the neighbor's next scan.
	// The merged cluster grows only if the parities differ and neither side
	// touches the boundary; then the even side is the one that starts.
	if A.parity != B.parity && !A.boundary && !B.boundary {
		if A.parity {
			u.invalidate(rb)
		} else {
			u.invalidate(ra)
		}
	}
	A.minEv = min(u.eventKey(ra), u.eventKey(rb))
	if A.rank == B.rank {
		A.rank++
	}
	B.parent = ra
	u.deadAt[rb] = u.ep32
	A.parity = A.parity != B.parity
	A.boundary = A.boundary || B.boundary
	// The merged cluster's membership and candidates changed.
	A.scanEpoch = 0
	if len(u.edgeList[rb]) > len(u.edgeList[ra]) {
		u.edgeList[ra], u.edgeList[rb] = u.edgeList[rb], u.edgeList[ra]
	}
	u.edgeList[ra] = append(u.edgeList[ra], u.edgeList[rb]...)
	// Keep rb's capacity for later decodes; rb is no longer a root, so its
	// list is dead until its next epoch reset.
	u.edgeList[rb] = u.edgeList[rb][:0]
	u.touched = append(u.touched, ra)
}

// markSat records saturated edge ei in its endpoints' satMask. Union has
// just ensured the edge's cached roots, and an endpoint that is not its
// cached root went through find this decode, so both records are live.
func (u *UnionFind) markSat(ei int32) {
	e, sl := &u.ue[ei], u.slot[ei]
	u.un[e.u].satMask |= 1 << sl.u
	if e.v != int32(u.n) {
		u.un[e.v].satMask |= 1 << sl.v
	}
}

// invalidate stale-marks every neighbor of root r, which is about to
// start growing. A clean neighbor has not merged since its scan, so it is
// the cached id on its side of each shared edge; marking a cached id that
// has since merged away is harmless, because its successor is a merged
// root and stale already. Edges never scanned this decode back no cached
// minimum.
func (u *UnionFind) invalidate(r int32) {
	for _, ei := range u.edgeList[r] {
		if e := &u.ue[ei]; e.rootEpoch == u.ep32 {
			u.un[e.ra].scanEpoch = 0
			u.un[e.rb].scanEpoch = 0
		}
	}
}

// argminRose reports whether clean root r's cached minimum went stale
// because the far side of its argmin edge stopped growing since r's scan,
// raising that edge's per-unit slack. (Far sides that started growing
// were stale-marked by invalidate; other edges whose far side stopped only
// rose, so the minimum they did not hold is unaffected; a minimum held by
// an edge whose far side was not growing, argmin -1, can only be moved by
// a start.) Checking here,
// once per clean root and round, keeps the union path of sparse shots —
// where most unions stop a cluster and no clean neighbor is left to read
// the result — free of per-edge checks. A dead cached root is re-resolved
// in place: the live roots are what a rescan would cache.
func (u *UnionFind) argminRose(r int32, nd *ufNode) bool {
	if nd.argmin < 0 {
		return false
	}
	e := &u.ue[nd.argmin]
	ra, rb := e.ra, e.rb
	if u.dead(ra) || u.dead(rb) {
		ra, rb = u.find(ra), u.find(rb)
		e.ra, e.rb = ra, rb
	}
	far := rb
	if ra != r {
		far = ra
	}
	return u.act[far] != u.activeGen // growing live roots are the active ones
}

// eventKey is r's active-order sort key: its cluster's smallest event id,
// or MaxInt32 for a cluster without events.
func (u *UnionFind) eventKey(r int32) int32 {
	switch nd := &u.un[r]; {
	case nd.rank > 0:
		return nd.minEv
	case nd.defect:
		return r
	}
	return math.MaxInt32
}

// enterActive appends root r to the next active list, syncing its growth
// clock if it was not growing last round (an idle gap must not read as
// pending growth).
func (u *UnionFind) enterActive(r int32) {
	if u.act[r] == u.activeGen {
		return
	}
	nd := &u.un[r]
	if u.act[r] != u.activeGen-1 || nd.appliedEpoch != u.ep32 {
		nd.appliedCum = u.cumDelta
		nd.appliedEpoch = u.ep32
	}
	u.act[r] = u.activeGen
	nd.ordAt = int32(len(u.next))
	u.next = append(u.next, r)
}

// endRound builds the next round's active list without walking the
// events: clusters change only at unions, so the roots no union touched
// stay active in their order, and the growing roots the unions produced
// merge in by smallest event id — the order a walk over the ascending
// events would collect them in, so ordAt and every miss credit match the
// eager schedule.
//
// No cached edge root needs retargeting here, although clean roots keep
// edges whose far root died this round. Such a dead root's live
// successor is a merged root, so it is stale: if it grows it is active
// and rescans in the next scan phase, re-resolving every cached root on
// its edges before any walk reads them; if it does not grow, the dead
// root reads exactly as its successor would: not active, so it earns no
// miss credit and no forced walk.
func (u *UnionFind) endRound() {
	gen := u.activeGen
	// The growing roots this round's unions produced, sorted by key (an
	// insertion sort: a round merges a handful of clusters).
	fresh := u.touched[:0]
	for _, r := range u.touched {
		nd := &u.un[r]
		if nd.parent != r || !nd.parity || nd.boundary {
			continue
		}
		k := u.eventKey(r)
		i := len(fresh)
		fresh = append(fresh, r)
		for ; i > 0 && u.eventKey(fresh[i-1]) > k; i-- {
			fresh[i] = fresh[i-1]
		}
		fresh[i] = r
	}

	u.activeGen++
	u.next = u.next[:0]
	i := 0
	for _, r := range u.active {
		if u.un[r].forcedAt == gen {
			continue // a union touched it: it re-enters through fresh, if at all
		}
		k := u.eventKey(r)
		for ; i < len(fresh) && u.eventKey(fresh[i]) < k; i++ { // enterActive drops repeats
			u.enterActive(fresh[i])
		}
		u.enterActive(r)
	}
	for ; i < len(fresh); i++ {
		u.enterActive(fresh[i])
	}
	u.active, u.next = u.next, u.active
	u.touched = u.touched[:0]
}

// satEdges appends real node v's saturated incident edges to buf, in
// adjacency order: the grown support as peel walks it. The satMask bits
// name the slots below satWide; a set satWide bit stands for every later
// slot, whose edges are checked one by one.
func (u *UnionFind) satEdges(v int32, buf []int32) []int32 {
	nd := &u.un[v]
	if nd.epoch != u.ep32 {
		return buf // untouched this decode: nothing saturated
	}
	adj := u.g.Adj[v]
	for m := nd.satMask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros16(m)
		if k == satWide {
			for _, ei := range adj[satWide:] {
				if e := &u.ue[ei]; e.epoch == u.ep32 && e.grown == e.cap {
					buf = append(buf, ei)
				}
			}
			break
		}
		buf = append(buf, adj[k])
	}
	return buf
}

// peel extracts a correction from the grown support and returns its logical
// mask. Every node it can reach was touched by growth (saturated edges only
// connect ensured nodes), so the epoch-stamped state is always valid here.
func (u *UnionFind) peel() (bool, error) {
	n := u.n
	// Support adjacency: saturated edges only.
	// BFS forest rooted at the boundary first, then any unvisited node.
	u.bfsOrder = u.bfsOrder[:0]
	u.queue = u.queue[:0]
	head := 0

	push := func(v, parent, viaEdge int32) {
		u.un[v].visited = true
		u.bfsPar[v] = parent
		u.bfsEdge[v] = viaEdge
		u.queue = append(u.queue, v)
		u.bfsOrder = append(u.bfsOrder, v)
	}

	expand := func(v int32) {
		if v == int32(n) {
			// The boundary's incident saturated edges, recorded during
			// growth.
			for _, ei := range u.satBound {
				w := u.g.Edges[ei].U
				if !u.un[w].visited {
					push(w, v, ei)
				}
			}
			return
		}
		u.satBuf = u.satEdges(v, u.satBuf[:0])
		for _, ei := range u.satBuf {
			w := u.ue[ei].u
			if w == v {
				w = u.ue[ei].v
			}
			if !u.un[w].visited {
				push(w, v, ei)
			}
		}
	}

	// Root at boundary.
	push(int32(n), -1, -1)
	for head < len(u.queue) {
		v := u.queue[head]
		head++
		expand(v)
	}
	// Remaining components (clusters not touching the boundary): every
	// defect is an event, so scanning the shot finds all of them.
	for _, d := range u.events {
		v := int32(d)
		if u.un[v].visited || !u.un[v].defect {
			continue
		}
		// BFS this component from v.
		push(v, -1, -1)
		for head < len(u.queue) {
			w := u.queue[head]
			head++
			expand(w)
		}
	}

	u.stats.UFPeelNodes += int64(len(u.bfsOrder))

	// Peel in reverse BFS order.
	obs := false
	for i := len(u.bfsOrder) - 1; i >= 0; i-- {
		v := u.bfsOrder[i]
		if v == int32(n) || u.bfsPar[v] == -1 {
			if v != int32(n) && u.un[v].defect {
				return false, fmt.Errorf("union-find: unresolved defect at root %d", v)
			}
			continue
		}
		if u.un[v].defect {
			ei := u.bfsEdge[v]
			if u.g.Edges[ei].Obs {
				obs = !obs
			}
			p := u.bfsPar[v]
			if p != int32(n) {
				u.un[p].defect = !u.un[p].defect
			}
			u.un[v].defect = false
		}
	}
	return obs, nil
}
