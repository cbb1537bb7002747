package decoder

import (
	"fmt"
	"slices"
)

// PipelineStats counts what the batch decode pipeline did with the shots it
// saw. Counters are cumulative for the Pipeline's lifetime (across Rebind);
// callers wanting per-interval numbers bracket the work with two Stats
// snapshots.
type PipelineStats struct {
	// Shots is every shot presented to DecodeBatch or Decode.
	Shots int64
	// Skipped counts zero-defect shots answered by the fast path: an empty
	// syndrome's minimum-weight correction is empty under every decoder, so
	// the predicted observable flip is false without touching the matcher.
	Skipped int64
	// DedupHits counts shots whose full syndrome matched an earlier shot of
	// the same batch; their prediction replays the representative's.
	DedupHits int64
	// Decoded counts the distinct non-empty syndromes actually handed to
	// the inner decoder. Shots == Skipped + DedupHits + Decoded.
	Decoded int64
}

// Pipeline is the batch-level decode front end that sits between the
// sampler and any BatchDecoder. Per batch it (1) answers zero-defect shots
// immediately (empty syndrome => empty correction => no observable flip),
// (2) deduplicates the remaining shots by full syndrome — FNV-1a hash into
// an epoch-stamped open-addressed table, always verified against the actual
// detector list, so a hash collision can never alias two different
// syndromes — decoding each distinct syndrome once and replaying the cached
// prediction for its duplicates, and (3) feeds the inner decoder the
// surviving distinct syndromes in batch order.
//
// Determinism contract: decoders are deterministic per syndrome (pinned by
// the fuzz suite), shots are decoded independently, and dedup verifies full
// syndrome equality, so DecodeBatch fills out with exactly the predictions
// the inner decoder would produce shot by shot — pipeline on or off is
// bit-identical per shot. Zero per-shot heap allocations in steady state.
// Not safe for concurrent use; create one per goroutine.
type Pipeline struct {
	inner BatchDecoder
	stats PipelineStats
	name  string

	// Epoch-stamped dedup table: a slot is live only when its stamp matches
	// the current batch epoch, so clearing between batches is one counter
	// increment. tabShot holds the representative's index within the batch.
	epoch    uint64
	tabEpoch []uint64
	tabHash  []uint64
	tabShot  []int32

	distinct []int32    // representative shot indices, in batch order
	dups     [][2]int32 // (duplicate shot, representative shot)
	sub      Batch      // distinct syndromes, in decode order
	subOut   []bool
}

// NewPipeline wraps inner with the batch skip/dedup front end.
func NewPipeline(inner BatchDecoder) *Pipeline {
	p := &Pipeline{}
	p.Rebind(inner)
	return p
}

// Rebind swaps the inner decoder, keeping the dedup table and batch
// buffers — the per-worker reuse hook that carries one Pipeline across the
// cells (and noise scales) a sweep worker executes. Stats keep
// accumulating across rebinds.
func (p *Pipeline) Rebind(inner BatchDecoder) {
	p.inner = inner
	p.name = "pipeline(" + inner.Name() + ")"
}

// Inner returns the wrapped decoder.
func (p *Pipeline) Inner() BatchDecoder { return p.inner }

// Name implements Decoder.
func (p *Pipeline) Name() string { return p.name }

// Stats returns a snapshot of the cumulative counters.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// DecoderStats implements StatsSource by forwarding to the inner decoder,
// so callers holding the pipeline see the matcher's stage counters.
func (p *Pipeline) DecoderStats() DecoderStats {
	if src, ok := p.inner.(StatsSource); ok {
		return src.DecoderStats()
	}
	return DecoderStats{}
}

// Decode implements Decoder: the scalar path gets the zero-defect skip but
// no cross-shot dedup (there is no batch to share syndromes with).
func (p *Pipeline) Decode(events []int) (bool, error) {
	p.stats.Shots++
	if len(events) == 0 {
		p.stats.Skipped++
		return false, nil
	}
	p.stats.Decoded++
	return p.inner.Decode(events)
}

// fnv1aEvents hashes one shot's sorted detector ids (64-bit FNV-1a over
// the little-endian bytes of each id, the footprint-hashing scheme of
// internal/dem).
func fnv1aEvents(events []int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, d := range events {
		for b := 0; b < 4; b++ {
			h ^= uint64(byte(d >> (8 * b)))
			h *= prime
		}
	}
	return h
}

// grow resizes the dedup table to hold at least n live entries at < 1/2
// load. Growing starts a fresh epoch, so stale slots need no migration.
func (p *Pipeline) grow(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	if size <= len(p.tabEpoch) {
		return
	}
	p.tabEpoch = make([]uint64, size)
	p.tabHash = make([]uint64, size)
	p.tabShot = make([]int32, size)
	p.epoch = 0
}

// DecodeBatch implements BatchDecoder: classify, dedup, decode the distinct
// survivors through the inner decoder in batch order, then scatter and
// replay. Decoding is a pure function of each syndrome, so the order the
// survivors are decoded in cannot change any prediction.
func (p *Pipeline) DecodeBatch(b *Batch, out []bool) error {
	n := b.Len()
	if len(out) < n {
		return fmt.Errorf("%s: out buffer %d too small for batch of %d", p.name, len(out), n)
	}
	p.stats.Shots += int64(n)
	p.grow(n)
	p.epoch++
	mask := uint64(len(p.tabEpoch) - 1)
	p.distinct = p.distinct[:0]
	p.dups = p.dups[:0]

	for i := 0; i < n; i++ {
		ev := b.Shot(i)
		if len(ev) == 0 {
			out[i] = false
			p.stats.Skipped++
			continue
		}
		h := fnv1aEvents(ev)
		slot := h & mask
		for {
			if p.tabEpoch[slot] != p.epoch {
				p.tabEpoch[slot] = p.epoch
				p.tabHash[slot] = h
				p.tabShot[slot] = int32(i)
				p.distinct = append(p.distinct, int32(i))
				break
			}
			if rep := p.tabShot[slot]; p.tabHash[slot] == h && slices.Equal(b.Shot(int(rep)), ev) {
				p.dups = append(p.dups, [2]int32{int32(i), rep})
				p.stats.DedupHits++
				break
			}
			slot = (slot + 1) & mask
		}
	}
	p.stats.Decoded += int64(len(p.distinct))

	p.sub.Reset()
	for _, i := range p.distinct {
		p.sub.Add(b.Shot(int(i)))
	}
	if cap(p.subOut) < len(p.distinct) {
		p.subOut = make([]bool, len(p.distinct))
	}
	p.subOut = p.subOut[:len(p.distinct)]
	if err := p.inner.DecodeBatch(&p.sub, p.subOut); err != nil {
		return err
	}
	for k, i := range p.distinct {
		out[i] = p.subOut[k]
	}
	for _, d := range p.dups {
		out[d[0]] = out[d[1]]
	}
	return nil
}

// tableSize reports the dedup table's current capacity (test hook).
func (p *Pipeline) tableSize() int { return len(p.tabEpoch) }

var _ BatchDecoder = (*Pipeline)(nil)
