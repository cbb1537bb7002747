package decoder

import (
	"fmt"
	"math"

	"repro/internal/dem"
)

// Exact is the plain exact minimum-weight perfect matching decoder: Dijkstra
// pairwise distances plus one bitmask dynamic program over the whole event
// set. Cost is O(2^k) in the event count k, so Decode fails for
// k > MaxEvents. It is the independently-coded ground truth the tests
// check Blossom and union-find against, not an engine decoder.
type Exact struct {
	g *dem.Graph
	// MaxEvents bounds the DP size (default 16).
	MaxEvents int

	dist []float64
	mask []bool
	heap distHeap
}

// NewExact builds an exact matching decoder over g.
func NewExact(g *dem.Graph) *Exact {
	n := g.NumNodes + 1
	return &Exact{
		g:         g,
		MaxEvents: 16,
		dist:      make([]float64, n),
		mask:      make([]bool, n),
	}
}

// Name implements Decoder.
func (x *Exact) Name() string { return "exact-mwpm" }

// Decode implements Decoder.
func (x *Exact) Decode(events []int) (bool, error) {
	obs, _, err := x.DecodeWithWeight(events)
	return obs, err
}

// DecodeWithWeight additionally returns the optimal matching weight.
func (x *Exact) DecodeWithWeight(events []int) (bool, float64, error) {
	k := len(events)
	if k == 0 {
		return false, 0, nil
	}
	if k > x.MaxEvents {
		return false, 0, fmt.Errorf("exact: %d events exceeds MaxEvents=%d", k, x.MaxEvents)
	}
	n := x.g.NumNodes
	pd := make([][]float64, k)
	pm := make([][]bool, k)
	bd := make([]float64, k)
	bm := make([]bool, k)
	for i, ev := range events {
		dijkstra(x.g, ev, x.dist, x.mask, &x.heap)
		pd[i] = make([]float64, k)
		pm[i] = make([]bool, k)
		for j, ev2 := range events {
			pd[i][j] = x.dist[ev2]
			pm[i][j] = x.mask[ev2]
		}
		bd[i] = x.dist[n]
		bm[i] = x.mask[n]
	}
	obs, w := matchAll(k, pd, pm, bd, bm)
	if math.IsInf(w, 1) {
		return false, 0, fmt.Errorf("exact: no feasible matching")
	}
	return obs, w, nil
}

// matchAll runs the bitmask DP over all k events. Deliberately independent
// of Blossom's matcher so the two implementations cross-check each other
// in tests.
func matchAll(k int, pd [][]float64, pm [][]bool, bd []float64, bm []bool) (bool, float64) {
	size := 1 << k
	cost := make([]float64, size)
	choice := make([]int8, size)
	for s := 1; s < size; s++ {
		cost[s] = math.Inf(1)
		i := lowestBit(s)
		rest := s &^ (1 << i)
		if c := bd[i] + cost[rest]; c < cost[s] {
			cost[s] = c
			choice[s] = -1
		}
		for j := i + 1; j < k; j++ {
			if rest&(1<<j) == 0 {
				continue
			}
			c := pd[i][j] + cost[rest&^(1<<j)]
			if c < cost[s] {
				cost[s] = c
				choice[s] = int8(j)
			}
		}
	}
	obs := false
	s := size - 1
	for s != 0 {
		i := lowestBit(s)
		if choice[s] == -1 {
			if bm[i] {
				obs = !obs
			}
			s &^= 1 << i
			continue
		}
		j := int(choice[s])
		if pm[i][j] {
			obs = !obs
		}
		s &^= (1 << i) | (1 << j)
	}
	return obs, cost[size-1]
}

// dijkstra fills dist and mask with shortest weighted distances from src;
// node g.NumNodes is the boundary.
func dijkstra(g *dem.Graph, src int, dist []float64, mask []bool, h *distHeap) {
	n := g.NumNodes
	for i := range dist {
		dist[i] = math.Inf(1)
		mask[i] = false
	}
	dist[src] = 0
	*h = (*h)[:0]
	h.push(heapItem{0, int32(src)})
	for len(*h) > 0 {
		it := h.pop()
		v := it.node
		if it.d > dist[v] {
			continue
		}
		if v == int32(n) {
			continue
		}
		for _, ei := range g.Adj[v] {
			e := &g.Edges[ei]
			w := e.V
			if w == dem.BoundaryNode {
				w = int32(n)
			}
			if w == v {
				w = e.U
			}
			nd := it.d + e.W
			if nd < dist[w] {
				dist[w] = nd
				mask[w] = mask[v] != e.Obs
				h.push(heapItem{nd, w})
			}
		}
	}
}

func lowestBit(s int) int {
	i := 0
	for s&1 == 0 {
		s >>= 1
		i++
	}
	return i
}

type heapItem struct {
	d    float64
	node int32
}

type distHeap []heapItem

func (h *distHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].d <= (*h)[i].d {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() heapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		m := l
		if r < last && old[r].d < old[l].d {
			m = r
		}
		if old[i].d <= old[m].d {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}
