// Package decoder implements syndrome decoders over the weighted decoding
// graphs produced by internal/dem. The two selectable strategies share one
// vocabulary, decoder.Kind ("uf" | "blossom"), threaded through the
// Monte-Carlo engine, the sweep scheduler, the serving front end, and the
// sweep CLIs; montecarlo.WorkerState builds and rebinds the decoder for a
// kind:
//
//   - UnionFind (KindUF): the weighted-growth union-find decoder
//     (Delfosse–Nickerson, arXiv:1709.06218) with peeling. Near-linear time
//     and within a small constant of matching accuracy; the conservative
//     workhorse. Its per-decode state is epoch-stamped and reset lazily,
//     round one's slack scan runs while the events' edges are seeded,
//     far-side checks read dense stamp arrays, and peel expands only the
//     saturated adjacency slots, so a sparse shot costs only the nodes
//     and edges its growth reaches (ARCHITECTURE.md, "The decoder hot
//     path").
//
//   - Blossom (KindBlossom): sparse-blossom-style exact minimum-weight
//     matching — the production matcher. Regions grow from detection
//     events to small adaptive radii over hoisted boundary/landmark
//     distance tables, meeting regions prove exact pair distances, a
//     primal-dual alternating-tree matcher (with blossom formation and
//     shattering) matches each component on the pairs' savings, and the
//     matcher's LP duals certify the radii or escalate them — so every
//     shot ends in a strictly-minimum-weight correction, at less than
//     union-find cost on warm engines (BENCH_decoder.json).
//
// Exact is the test oracle, not a Kind: exact minimum-weight perfect
// matching over the detection events (Dijkstra pairwise distances +
// bitmask dynamic programming), coded independently of Blossom.
// Exponential in the event count, so it refuses more than MaxEvents
// events; the conformance and fuzz suites check Blossom's matching weight
// against it shot by shot.
//
// All decoders answer one question per shot: given the set of fired
// detectors, did the error most likely flip the logical observable?
//
// The events are a set, not a sequence: a decoder's prediction must depend
// only on which detectors fired, never on the order the caller lists them
// in. The engine always passes ascending ids (dem.ShotSet), but callers of
// Decode need not. UnionFind, whose growth schedule walks clusters in
// event order, checks sortedness and sorts an unsorted list into a
// reusable buffer first, so sorted callers pay one pass. The property
// tests pin this on sparse random sets and on dense circuit-level shots.
//
// In front of the decoders sits Pipeline, the batch-level decode front
// end: it answers zero-defect shots immediately (an empty syndrome's
// minimum-weight correction is empty, so the prediction is "no flip"
// under every Kind), hashes each remaining shot's syndrome and decodes
// every distinct syndrome in the batch exactly once — densest first —
// through the wrapped inner BatchDecoder, then replays the cached
// prediction into each duplicate slot. Because each Kind is
// deterministic per syndrome and stateless across shots, the pipeline is
// bit-identical to the unpruned path shot for shot; hash matches are
// always verified against the full event list, so a collision can never
// alias two syndromes. Its skip/dedup counters (PipelineStats) surface
// through montecarlo.Counts and the serving front end's /v1/stats. The
// Monte-Carlo engine routes batches through the pipeline in exactly one
// place, the step that turns a sampled batch into a failure mask, and
// montecarlo.Config.DisablePipeline bypasses it there — a switch for the
// conformance tests and benchmarks, exposed on no user surface.
//
// The matchers themselves are instrumented: DecoderStats counts the
// stage-level work behind the hot-path profiles — union-find growth
// rounds, candidate-edge scans, and peel visits; blossom
// radius-escalation rounds, landmark queries, and re-matched components;
// wmatch alternating-tree phases and dual adjustments. Decoders exposing
// counters implement StatsSource (Pipeline forwards to its inner
// decoder); every counter is a plain sum, so worker and shard stats
// merge by addition, bit-identically at any pool width. The numbers ride
// montecarlo.Counts (the counter set Result and ShardResult embed) into
// /v1/stats, the CLIs' -json rows, and BENCH_decoder.json — the evidence chain the hot-path work in
// ARCHITECTURE.md ("The decoder hot path") is driven by.
//
// Entry points:
//
//   - Decoder: the scalar interface — Decode(events) (obsFlip, err)
//   - BatchDecoder + Batch: the allocation-free bulk path; Batch is a
//     reusable flat container of many shots' events and DecodeBatch
//     decodes them with zero per-shot allocations
//   - Pipeline / NewPipeline: the zero-defect-skip + syndrome-dedup
//     batch front end over any BatchDecoder (see ARCHITECTURE.md,
//     "The batch decode pipeline")
//   - ParseKind / Kinds: flag- and request-level selection of a strategy
//   - DecoderStats / StatsSource: the stage-counter surface; Add/Sub
//     bracket intervals and merge shards
//   - UnionFind.Rebind / Blossom.Rebind / Pipeline.Rebind: rebind
//     existing decoder state to a new graph of any shape, reslicing its
//     arrays within their capacity and growing them only past it, so a
//     worker reuses all decoder arrays (and the pipeline's hash table)
//     across noise scales and distances instead of reallocating per
//     cell; NewUnionFind and NewBlossom are Rebind on a zero value
//
// Decoders reuse internal buffers and are not safe for concurrent use;
// create one per goroutine (the Monte-Carlo engine threads one per worker
// through montecarlo.WorkerState).
package decoder
