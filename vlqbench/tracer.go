package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one cell or
// request share Op; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a finished call and returns its span ID.
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return id
}

// reserve makes room for n more spans, so that recording them allocates
// nothing: a replay that allocated would run the garbage collector's
// write barriers and assists that the engine it is compared with does not.
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = slices.Grow(t.spans, n)
	t.mu.Unlock()
}

// begin opens a span that end closes.
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the time its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write saves the run metadata, the spans and the per-name self times.
func (t *tracer) write(path string, meta map[string]any) error {
	self := map[string]int64{}
	for name, d := range t.selfTimes() {
		self[name] = int64(d)
	}
	t.mu.Lock()
	buf, err := json.Marshal(map[string]any{"meta": meta, "self_ns": self, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
