// Package extract generates the syndrome-extraction experiments evaluated in
// the paper: the Baseline 2D surface code (Fig. 2) and the four 2.5D memory
// variants — Natural and Compact embeddings, each with All-at-once or
// Interleaved scheduling (§III-A, §III-C, §V). An Experiment bundles the
// noisy circuit, the detector definitions, and the logical observable for a
// memory experiment in a chosen basis.
//
// Trial anatomy (memory-Z, distance d, R rounds):
//
//	prepare |0>^d^2 perfectly  ->  [scheme-specific rounds with noise,
//	including the cavity-residency gaps implied by cavity depth k]  ->
//	perfect data readout.
//
// Z-plaquette syndrome records form the detectors (first record compared to
// the deterministic reference, consecutive records XORed, final record
// compared to the data readout); the logical observable is the data-readout
// parity along the logical-Z string. The memory-X experiment is the mirror
// image. The paper's cavity-size serialization appears as explicit
// cavity-idle gap moments: with depth k, an Interleaved patch waits k-1
// round-durations between its own rounds, and an All-at-once patch waits
// (k-1)*d round-durations between super-cycles (§III-A, §VI).
//
// The build is split the same way the rest of the pipeline is — an
// expensive structural half and a cheap per-noise-scale half:
//
//   - Build(Config) constructs the full Experiment: moments, gates, noise
//     annotations, detectors, observable.
//   - Config.StructuralKey identifies everything that survives a change
//     of error probabilities (scheme, distance, rounds, basis, and the
//     durations that shape the circuit). Two Configs with equal keys
//     share one circuit structure.
//   - Experiment.Reannotate / Experiment.NoiseProbs re-derive only the
//     error probabilities for new hardware.Params, so a sweep builds each
//     circuit once and re-noises it per scale. Build interns every op's
//     noise recipe — its noise class, its moment duration (idle classes
//     only) and whether the class was zero at build time — and ops with
//     equal recipes carry equal probabilities under any parameters.
//     NoiseProbs returns the noise vector, one probability per recipe
//     (OpRecipes maps each op to its entry): a handful of values for tens
//     of thousands of ops, so re-noising a cell costs O(recipes).
//     dem.Structure.Reweight consumes the noise vector directly.
//
// Entry points: Config -> Build -> Experiment; Scheme and Basis enumerate
// the five Fig. 11 setups and the two memory bases; Schemes lists them in
// paper order.
package extract
