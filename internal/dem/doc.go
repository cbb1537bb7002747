// Package dem builds detector error models: it enumerates every elementary
// Pauli fault of an experiment's circuit and records which detectors it
// flips and whether it flips the logical observable. Faults with identical
// footprints merge into a single mechanism with XOR-combined probability.
//
// Footprints come from one reverse sensitivity pass, as in Stim. Walking
// the circuit backwards, each slot carries the detector set (and
// observable bit) that an X, respectively Z, component injected there
// would flip; going back through an op applies the transpose of the
// Pauli-frame update, and a measurement adds its record's detectors to the
// slot's X sensitivity. A fault's footprint is the XOR of the
// sensitivities its Paulis touch, read just after its op. The pass is
// linear in circuit size, and its result is bit-identical to propagating
// every fault forward through the Pauli-frame simulator, which the tests
// keep as the reference oracle.
//
// The model is split into two halves, the way Stim separates fault
// structure from fault probability:
//
//   - Structure (BuildStructure) is the build-once, probability-free half:
//     merged mechanism footprints in flat CSR form, plus, per mechanism,
//     the list of elementary fault branches (global op index + branch
//     divisor) that feed it. It depends only on the circuit's gates and
//     moments, so one Structure serves every noise scale of a sweep. The
//     decoding-graph topology (detector decomposition, edge set, boundary
//     assignment, adjacency) is hoisted here too: Structure.Graph builds a
//     GraphStructure once, and GraphStructure.Weight recomputes only the
//     edge weights per noise scale.
//   - Reweight (and the allocation-reusing ReweightInto) is the cheap
//     half: given the experiment's noise vector (one probability per op
//     recipe, extract.Experiment.NoiseProbs) it produces a Model —
//     per-mechanism probabilities ready for sampling and decoding-graph
//     extraction — without re-running fault analysis.
//
// Mechanism classes make the cheap half cost O(distinct noise values)
// plus a gather. BuildStructure records each fault source's recipe and
// groups mechanisms whose ordered (recipe, divisor) source lists are
// equal into one class: such mechanisms fold to the same probability
// under every noise vector. A Compact-Interleaved d=11 model has 3,631
// mechanisms in 41 classes, fed by 115,808 sources. Reweight folds each
// class once and gathers the values into the mechanisms; Structure.Graph
// groups edges the same way, by their ordered (mechanism class,
// observable) source lists, so GraphStructure.Weight converts one
// probability to a weight per edge class; a model whose mechanisms break
// their classes (probabilities edited one by one) is weighted edge by edge
// instead. The samplers' Reset evaluates
// its logarithms once per distinct probability value. Every value is
// computed by the same operations in the same order as a per-mechanism
// fold, so the results are bit-for-bit those of a direct Build, which
// stays the per-op reference.
//
// Build bundles both for one-shot use.
//
// Entry points:
//
//   - Build / BuildStructure + Structure.Reweight: circuit -> Model
//   - Model.NewSampler: scalar sampling, one shot per call
//   - Model.NewBatchSampler: word-packed sampling, 64 shots per pass with
//     geometric skip-sampling over rare mechanisms (BatchShots)
//   - NewWeightedBatchSampler: importance sampling — draw shots from a
//     boosted proposal Model and get per-shot log likelihood-ratio
//     weights against the target Model; with proposal == target the
//     weights are exactly 1 and the shot stream is bit-identical to the
//     plain BatchSampler's (the Monte-Carlo engine's rare-event mode
//     builds the proposal by Reweighting the shared Structure with
//     boosted per-op probabilities)
//   - Model.DecodingGraph / Structure.Graph + GraphStructure.Weight: the
//     weighted matching graph consumed by internal/decoder;
//     GraphStructure.WeightInto writes it into a caller-owned Graph,
//     reusing its edge slice from cell to cell
//
// In the paper's pipeline this package sits between the extracted noisy
// circuits (internal/extract) and the decoders scored by the Monte-Carlo
// engine: every Fig. 11 / Fig. 12 cell samples one Model and decodes its
// shots against the corresponding Graph.
package dem
