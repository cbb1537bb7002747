package montecarlo

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/decoder"
	"repro/internal/dem"
)

// Crew is the rendezvous through which the idle workers of one pool decode
// batches that running cells have already sampled. A cell's owner (the
// goroutine in runCell, its WorkerState joined to the crew) keeps sampling
// serially from its own ChaCha8 stream and folds results strictly in batch
// order; it lends sampled batches, when they carry enough fired detectors
// to repay the handoff, only to helpers that are blocked in Claim or
// already decoding one of its batches, and decodes itself every batch no
// helper has claimed. Decoding is a pure function of a batch's
// syndromes, so who decodes a batch never changes a result bit.
//
// A helper loops Claim / DecodeSlot / Finish until Claim returns nil,
// which happens once Close is called; the pool closes the crew after its
// last cell returns, so no owner can be left waiting on a helper.
type Crew struct {
	mu     sync.Mutex
	work   sync.Cond // helpers wait here for a lent slot or Close
	idle   int       // helpers blocked in Claim
	lanes  []*lane   // lanes holding lent, unclaimed slots, oldest first
	closed bool
}

// NewCrew returns an open crew with no members.
func NewCrew() *Crew {
	c := &Crew{}
	c.work.L = &c.mu
	return c
}

// JoinCrew makes the cells run on st lend their sampled batches to c's idle
// helpers. A WorkerState belongs to at most one crew.
func (st *WorkerState) JoinCrew(c *Crew) { st.crew = c }

// Claim blocks until some cell lends a batch and returns it, held by the
// caller until Finish; it returns nil once the crew is closed.
func (c *Crew) Claim() *Slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.lanes) > 0 {
			l := c.lanes[0]
			l.held++
			return l.take()
		}
		if c.closed {
			return nil
		}
		c.idle++
		c.work.Wait()
		c.idle--
	}
}

// Finish returns a claimed slot to its owner with the decode outcome.
func (c *Crew) Finish(s *Slot, err error) {
	c.mu.Lock()
	s.err, s.done = err, true
	s.lane.held--
	s.lane.wake.Signal()
	c.mu.Unlock()
}

// Close releases every helper blocked in Claim. Call it only after every
// cell that could lend to the crew has returned.
func (c *Crew) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.work.Broadcast()
}

// Slot is one sampled batch on its way from the cell that drew it to the
// worker that decodes it. The owner fills the sampling half — zero-defect
// failures, the extracted nonzero shots, and the weights in rare-event
// mode; the decode fills the failure mask and the per-batch counter deltas
// that the owner folds.
type Slot struct {
	lane    *lane
	n       int
	obsW    uint64
	failw   uint64 // bit s set iff shot s failed; zero-defect shots at sampling, the rest at decode
	skipped int
	shots   dem.ShotSet
	w       [dem.BatchShots]float64 // likelihood-ratio weights (rare-event mode)

	dedup int
	stats decoder.DecoderStats
	err   error
	done  bool // decoded; guarded by the crew's mu once the slot is lent
}

// lane is one running cell's side of the crew: its sampled, unfolded
// slots in batch order and its decode binding. It lives in the owner's
// WorkerState and is reused from cell to cell.
type lane struct {
	crew  *Crew
	wake  sync.Cond // the owner waits here for a helper's Finish
	kind  DecoderKind
	graph *dem.Graph
	pipe  bool

	slots []*Slot // sampled and not yet folded, in batch order
	free  []*Slot

	// Guarded by crew.mu. The lane is in crew.lanes iff lent is not empty.
	lent []*Slot // lent and unclaimed, in batch order
	held int     // claimed by helpers, not yet finished
}

// openLane binds st's lane to one cell.
func (st *WorkerState) openLane(kind DecoderKind, graph *dem.Graph, pipe bool) *lane {
	if st.lane == nil {
		st.lane = &lane{}
	}
	l := st.lane
	if l.crew != st.crew {
		l.crew = st.crew
		if l.crew != nil {
			l.wake.L = &l.crew.mu
		}
	}
	l.kind, l.graph, l.pipe = kind, graph, pipe
	return l
}

// sample draws the cell's next batch of n shots into a fresh slot at the
// tail of the lane.
func (l *lane) sample(bs *dem.BatchSampler, ws *dem.WeightedBatchSampler, rng *rand.Rand, n int) *Slot {
	var s *Slot
	if k := len(l.free); k > 0 {
		s, l.free = l.free[k-1], l.free[:k-1]
	} else {
		s = &Slot{lane: l}
	}
	bs.SampleN(rng, n)
	full := ^uint64(0) >> uint(dem.BatchShots-n)
	s.n, s.obsW = n, bs.ObsWord()
	s.failw, s.skipped, s.done, s.err = 0, 0, false, nil
	mask := full
	if l.pipe {
		// Zero-defect shots are decided from ObsWord alone — an empty
		// syndrome's minimum-weight correction is empty — and only the rest
		// are extracted for the decoder.
		mask = bs.EventMask()
		zero := full &^ mask
		s.skipped = bits.OnesCount64(zero)
		s.failw = s.obsW & zero
	}
	bs.Extract(mask, &s.shots)
	if ws != nil {
		for i := range n {
			s.w[i] = ws.Weight(i)
		}
	}
	l.slots = append(l.slots, s)
	return s
}

// step is the owner's snapshot of its lane, taken once per loop turn.
type step struct {
	headDone         bool
	lent, held, idle int
}

func (l *lane) snapshot() step {
	if l.crew == nil {
		return step{headDone: len(l.slots) > 0 && l.slots[0].done}
	}
	l.crew.mu.Lock()
	defer l.crew.mu.Unlock()
	return step{len(l.slots) > 0 && l.slots[0].done, len(l.lent), l.held, l.crew.idle}
}

// pop removes the head slot for folding; release returns it for reuse.
func (l *lane) pop() *Slot {
	s := l.slots[0]
	copy(l.slots, l.slots[1:])
	l.slots = l.slots[:len(l.slots)-1]
	return s
}

func (l *lane) release(s *Slot) { l.free = append(l.free, s) }

// lend offers a freshly sampled slot to the crew's idle helpers.
func (l *lane) lend(s *Slot) {
	c := l.crew
	c.mu.Lock()
	if len(l.lent) == 0 {
		c.lanes = append(c.lanes, l)
	}
	l.lent = append(l.lent, s)
	c.mu.Unlock()
	c.work.Signal()
}

// reclaim takes back the oldest lent slot no helper has claimed, or
// returns nil.
func (l *lane) reclaim() *Slot {
	c := l.crew
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(l.lent) == 0 {
		return nil
	}
	return l.take()
}

// take removes the oldest lent slot; crew.mu is held.
func (l *lane) take() *Slot {
	s := l.lent[0]
	l.lent = slices.Delete(l.lent, 0, 1)
	if len(l.lent) == 0 {
		l.unlist()
	}
	return s
}

// unlist drops the lane from the crew's queue; crew.mu is held.
func (l *lane) unlist() {
	i := slices.Index(l.crew.lanes, l)
	l.crew.lanes = slices.Delete(l.crew.lanes, i, i+1)
}

// waitHead blocks until a helper finishes the head slot.
func (l *lane) waitHead() {
	l.crew.mu.Lock()
	for !l.slots[0].done {
		l.wake.Wait()
	}
	l.crew.mu.Unlock()
}

// drain ends the cell's use of the lane: lent slots are withdrawn, slots
// still held by helpers are waited for, and every unfolded slot — sampled
// past an early stop or an error — is discarded uncounted.
func (l *lane) drain() {
	if c := l.crew; c != nil {
		c.mu.Lock()
		if len(l.lent) > 0 {
			l.lent = l.lent[:0]
			l.unlist()
		}
		for l.held > 0 {
			l.wake.Wait()
		}
		c.mu.Unlock()
	}
	l.free = append(l.free, l.slots...)
	l.slots = l.slots[:0]
}

// DecodeSlot decodes a slot claimed from a crew on st, binding st's
// decoder and pipeline to the slot's graph (rebinding only when the graph
// or decoder kind changed since st's last decode). It records the slot's
// failure mask and its DedupHits and decoder Stats deltas.
func (st *WorkerState) DecodeSlot(s *Slot) error {
	l := s.lane
	dec := st.bind(l.kind, l.graph)
	src, _ := dec.(decoder.StatsSource)
	var base decoder.DecoderStats
	if src != nil {
		base = src.DecoderStats()
	}
	var dedup0 int64
	var pipe *decoder.Pipeline
	if l.pipe {
		pipe = st.pipeline(dec)
		dec, dedup0 = pipe, pipe.Stats().DedupHits
	}
	st.batch.Reset()
	for i := range s.shots.Len() {
		st.batch.Add(s.shots.Shot(i))
	}
	if err := dec.DecodeBatch(&st.batch, st.out[:s.shots.Len()]); err != nil {
		return err
	}
	for i := range s.shots.Len() {
		sh := uint(s.shots.Index(i))
		if st.out[i] != (s.obsW>>sh&1 != 0) {
			s.failw |= 1 << sh
		}
	}
	s.dedup, s.stats = 0, decoder.DecoderStats{}
	if pipe != nil {
		s.dedup = int(pipe.Stats().DedupHits - dedup0)
	}
	if src != nil {
		s.stats = src.DecoderStats().Sub(base)
	}
	return nil
}

// bind returns st's decoder bound to graph, reusing the current binding
// when neither the graph nor the kind changed.
func (st *WorkerState) bind(kind DecoderKind, graph *dem.Graph) decoder.BatchDecoder {
	if st.dec == nil || st.decKind != kind || st.decGraph != graph {
		st.dec = st.decoderFor(kind, graph)
		st.decKind, st.decGraph = kind, graph
	}
	return st.dec
}
