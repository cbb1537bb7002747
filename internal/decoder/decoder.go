package decoder

import "fmt"

// Decoder predicts whether the logical observable flipped, given the fired
// detector ids. The ids are a set: any order gives the same prediction
// (ascending is cheapest). Implementations reuse internal buffers and are
// not safe for concurrent use; create one per goroutine.
type Decoder interface {
	Decode(events []int) (obsFlip bool, err error)
	Name() string
}

// Batch is a reusable flat (CSR) container of shots for batch decoding:
// shot i's fired detectors are events[off[i]:off[i+1]]. Reset + Add reuse
// the backing arrays, so a steady-state Monte-Carlo loop allocates nothing.
type Batch struct {
	events []int
	off    []int
}

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() {
	b.events = b.events[:0]
	if len(b.off) == 0 {
		b.off = append(b.off, 0)
	}
	b.off = b.off[:1]
}

// Add appends one shot's fired detectors (copied into the batch).
func (b *Batch) Add(events []int) {
	if len(b.off) == 0 {
		b.off = append(b.off, 0)
	}
	b.events = append(b.events, events...)
	b.off = append(b.off, len(b.events))
}

// Len returns the number of shots in the batch.
func (b *Batch) Len() int {
	if len(b.off) == 0 {
		return 0
	}
	return len(b.off) - 1
}

// Shot returns shot i's fired detectors (shared backing; do not modify).
func (b *Batch) Shot(i int) []int { return b.events[b.off[i]:b.off[i+1]] }

// BatchDecoder decodes many shots per call with reusable buffers —
// the hot path of the Monte-Carlo engine. DecodeBatch fills out[i] with the
// observable prediction for batch shot i; out must have at least Len
// elements. Implementations perform zero per-shot heap allocations in
// steady state.
type BatchDecoder interface {
	Decoder
	DecodeBatch(b *Batch, out []bool) error
}

// decodeSerial implements DecodeBatch as a shot loop over d.Decode — the
// shared body of every BatchDecoder whose batching win is buffer reuse
// rather than cross-shot work.
func decodeSerial(d Decoder, b *Batch, out []bool) error {
	n := b.Len()
	if len(out) < n {
		return fmt.Errorf("%s: out buffer %d too small for batch of %d", d.Name(), len(out), n)
	}
	for i := 0; i < n; i++ {
		pred, err := d.Decode(b.Shot(i))
		if err != nil {
			return err
		}
		out[i] = pred
	}
	return nil
}
