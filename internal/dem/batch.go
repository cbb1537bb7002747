package dem

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// BatchShots is the number of shots a BatchSampler draws per pass: one bit
// per shot in a machine word.
const BatchShots = 64

// BatchSampler draws up to 64 shots per pass using word-packed detector
// parities: detector d's parity across the batch is one uint64, and a
// mechanism firing in shot s XORs bit s into every detector of its
// footprint. Rare mechanisms are handled with geometric skip-sampling: one
// uniform draw decides whether a mechanism fires anywhere in the batch
// (probability 1-(1-p)^n), and only then are the firing shot positions
// generated by inverting the geometric gap distribution. For p ~ 1e-3 this
// replaces ~64 RNG calls per mechanism with ~1 + 64p.
//
// Not safe for concurrent use; create one per goroutine.
type BatchSampler struct {
	m *Model

	// Per positive-probability mechanism below 1: model index, probability,
	// log(1-p), its reciprocal, and P(any fire in a full 64-shot batch).
	mech   []int32
	p      []float64
	logq   []float64
	inv    []float64
	pAny64 []float64
	always []int32 // mechanisms with p >= 1: fire in every shot

	parity []uint64 // detector d: bit s set iff shot s fired d
	obsW   uint64
	n      int // shots drawn by the last Sample/SampleN call
	events []int

	// Weighted-mode hooks, set only by WeightedBatchSampler (nil/zero for
	// plain sampling, keeping the hot loop branch-free on the common path):
	// wlam[k] is the log likelihood-ratio increment a shot's weight picks up
	// when stream entry k fires, wbase the per-shot base log weight (the
	// no-fire contribution of every stream entry).
	wlam  []float64
	wbase float64
	logw  [BatchShots]float64

	memo map[float64]logTerms // Reset's terms per distinct probability value
}

// NewBatchSampler returns a batch sampler over the model.
func (m *Model) NewBatchSampler() *BatchSampler {
	bs := &BatchSampler{}
	bs.Reset(m)
	return bs
}

// Reset rebinds the sampler to model m, reusing the previous buffers — this
// is how a sweep scheduler's per-worker sampler survives across cells
// instead of reallocating its per-mechanism tables for every noise scale.
// The logarithms behind the tables are evaluated once per distinct
// probability value, not once per mechanism.
func (bs *BatchSampler) Reset(m *Model) {
	bs.m = m
	if cap(bs.parity) >= m.NumDets {
		bs.parity = bs.parity[:m.NumDets]
	} else {
		bs.parity = make([]uint64, m.NumDets)
	}
	bs.mech = bs.mech[:0]
	bs.p = bs.p[:0]
	bs.logq = bs.logq[:0]
	bs.inv = bs.inv[:0]
	bs.pAny64 = bs.pAny64[:0]
	bs.always = bs.always[:0]
	bs.n = 0
	bs.obsW = 0
	bs.wlam = nil
	bs.wbase = 0
	bs.resetMemo()
	// Consecutive mechanisms often share a value (59% of them in a
	// Compact-Interleaved d=11 model, 87% in a Baseline one), so t holds
	// the terms of lastP, the last one looked up, ahead of the map.
	var t logTerms
	lastP := -1.0
	for i := range m.Mechs {
		p := m.Mechs[i].P
		switch {
		case p <= 0:
			// Never fires; excluded from the stream entirely.
		case p >= 1:
			bs.always = append(bs.always, int32(i))
		default:
			if p != lastP {
				t, lastP = bs.terms(p), p
			}
			bs.mech = append(bs.mech, int32(i))
			bs.p = append(bs.p, p)
			bs.logq = append(bs.logq, t.log1m)
			bs.inv = append(bs.inv, t.inv)
			bs.pAny64 = append(bs.pAny64, t.any64)
		}
	}
}

// logTerms are the transcendental terms the samplers derive from one
// probability p in (0, 1).
type logTerms struct {
	log1m float64 // log1p(-p)
	inv   float64 // 1/log1p(-p)
	any64 float64 // -expm1(64 log1p(-p)): P(fires anywhere in a full batch)
	log   float64 // log(p)
}

func newLogTerms(p float64) logTerms {
	l := math.Log1p(-p)
	return logTerms{log1m: l, inv: 1 / l, any64: -math.Expm1(BatchShots * l), log: math.Log(p)}
}

// resetMemo empties the per-value terms cache.
func (bs *BatchSampler) resetMemo() {
	if bs.memo == nil {
		bs.memo = make(map[float64]logTerms)
	}
	clear(bs.memo)
}

// terms returns p's logTerms, computing them once per Reset. Models
// reweighted from a Structure carry a few dozen distinct values over
// thousands of mechanisms.
func (bs *BatchSampler) terms(p float64) logTerms {
	t, ok := bs.memo[p]
	if !ok {
		t = newLogTerms(p)
		bs.memo[p] = t
	}
	return t
}

// Shots returns the number of shots drawn by the last Sample/SampleN call.
func (bs *BatchSampler) Shots() int { return bs.n }

// Sample draws a full 64-shot batch.
func (bs *BatchSampler) Sample(rng *rand.Rand) { bs.SampleN(rng, BatchShots) }

// SampleN draws n (1..64) shots into the packed parity planes. With n == 1
// the sampler consumes the RNG exactly like the scalar Sampler does on a
// model whose mechanisms all have probability in (0, 1): one Float64 per
// mechanism, firing iff the draw is below the mechanism probability.
func (bs *BatchSampler) SampleN(rng *rand.Rand, n int) {
	if n < 1 || n > BatchShots {
		panic(fmt.Sprintf("dem: batch size %d outside [1, %d]", n, BatchShots))
	}
	bs.n = n
	clear(bs.parity)
	bs.obsW = 0
	if bs.wlam != nil {
		for s := 0; s < n; s++ {
			bs.logw[s] = bs.wbase
		}
	}

	full := ^uint64(0)
	if n < BatchShots {
		full = 1<<uint(n) - 1
	}
	for _, mi := range bs.always {
		bs.apply(mi, full)
	}

	for k, mi := range bs.mech {
		u := rng.Float64()
		if n == 1 {
			// Exact scalar-equivalent path (no composed Expm1/Log1p
			// rounding): fire iff u < p.
			if u < bs.p[k] {
				bs.apply(mi, 1)
				if bs.wlam != nil {
					bs.logw[0] += bs.wlam[k]
				}
			}
			continue
		}
		pAny := bs.pAny64[k]
		if n < BatchShots {
			pAny = -math.Expm1(float64(n) * bs.logq[k])
		}
		if u >= pAny {
			continue
		}
		// First firing shot: invert the geometric CDF of 1-u, which is
		// uniform on ((1-p)^n, 1] given u < pAny.
		inv := bs.inv[k]
		ff := math.Log1p(-u) * inv
		if ff >= float64(n) { // float rounding at the truncation boundary
			continue
		}
		pos := int(ff)
		var fires uint64
		for {
			fires |= 1 << uint(pos)
			if pos+1 >= n {
				break
			}
			u2 := rng.Float64()
			if u2 <= 0 {
				break // infinite skip
			}
			gap := math.Log(u2) * inv
			if gap >= float64(n) {
				break
			}
			pos += 1 + int(gap)
			if pos >= n {
				break
			}
		}
		bs.apply(mi, fires)
		if bs.wlam != nil {
			for f := fires; f != 0; f &= f - 1 {
				bs.logw[bits.TrailingZeros64(f)] += bs.wlam[k]
			}
		}
	}
}

// apply XORs the firing mask into the mechanism's footprint planes.
func (bs *BatchSampler) apply(mi int32, mask uint64) {
	mech := &bs.m.Mechs[mi]
	for _, d := range mech.Dets {
		bs.parity[d] ^= mask
	}
	if mech.Obs {
		bs.obsW ^= mask
	}
}

// EventMask OR-reduces the batch's detector parity planes into one word:
// bit s is set iff shot s of the last Sample/SampleN call fired at least one
// detector. This is the batch-level classifier behind the decode pipeline's
// zero-defect fast path — one pass over NumDets words answers "which shots
// need a decoder at all" for the whole batch.
func (bs *BatchSampler) EventMask() uint64 {
	var m uint64
	for _, w := range bs.parity {
		m |= w
	}
	return m
}

// ObsWord returns the packed logical-observable truth of the last batch:
// bit s is set iff the sampled error flipped the observable in shot s. For
// a zero-defect shot the minimum-weight correction is empty, so bit s alone
// decides whether the shot is a logical failure under any decoder.
func (bs *BatchSampler) ObsWord() uint64 { return bs.obsW }

// ShotSet is a CSR extraction of selected shots of a batch: entry i holds
// the original shot index and its sorted fired-detector list, filled by
// Extract in one pass over the parity planes. The zero value is ready to
// use; buffers are reused across Extract calls.
type ShotSet struct {
	idx    []int32 // original shot index per entry, ascending
	off    []int32 // CSR offsets, len(idx)+1
	events []int   // concatenated sorted detector ids
}

// Len returns the number of extracted shots.
func (ss *ShotSet) Len() int { return len(ss.idx) }

// Events returns the total number of fired detectors over the extracted
// shots.
func (ss *ShotSet) Events() int { return len(ss.events) }

// Index returns entry i's original shot index within the batch.
func (ss *ShotSet) Index(i int) int { return int(ss.idx[i]) }

// Shot returns entry i's fired detectors, sorted ascending (shared backing;
// valid until the next Extract).
func (ss *ShotSet) Shot(i int) []int { return ss.events[ss.off[i]:ss.off[i+1]] }

// Extract fills ss with every shot of the last batch whose bit is set in
// mask, in ascending shot order, in one pass over the parity planes: total
// cost O(NumDets + events) for the whole batch, versus O(shots x NumDets)
// for per-shot Shot calls. Detector lists come out sorted ascending, byte
// for byte what Shot(s) returns for the same shot.
func (bs *BatchSampler) Extract(mask uint64, ss *ShotSet) {
	ss.idx = ss.idx[:0]
	for w := mask; w != 0; w &= w - 1 {
		ss.idx = append(ss.idx, int32(bits.TrailingZeros64(w)))
	}
	var counts, cur [BatchShots]int32
	for _, w := range bs.parity {
		for w &= mask; w != 0; w &= w - 1 {
			counts[bits.TrailingZeros64(w)]++
		}
	}
	if cap(ss.off) < len(ss.idx)+1 {
		ss.off = make([]int32, 0, len(ss.idx)+1)
	}
	ss.off = ss.off[:0]
	ss.off = append(ss.off, 0)
	total := int32(0)
	for _, s := range ss.idx {
		cur[s] = total
		total += counts[s]
		ss.off = append(ss.off, total)
	}
	if cap(ss.events) < int(total) {
		ss.events = make([]int, total)
	}
	ss.events = ss.events[:total]
	for d, w := range bs.parity {
		for w &= mask; w != 0; w &= w - 1 {
			s := bits.TrailingZeros64(w)
			ss.events[cur[s]] = d
			cur[s]++
		}
	}
}

// Shot extracts shot s of the last batch: the fired detectors (sorted,
// reused buffer) and whether the logical observable flipped.
func (bs *BatchSampler) Shot(s int) ([]int, bool) {
	if s < 0 || s >= bs.n {
		panic(fmt.Sprintf("dem: shot %d outside drawn batch of %d", s, bs.n))
	}
	bit := uint64(1) << uint(s)
	bs.events = bs.events[:0]
	for d, w := range bs.parity {
		if w&bit != 0 {
			bs.events = append(bs.events, d)
		}
	}
	return bs.events, bs.obsW&bit != 0
}
