// Package vlq is the public API of a from-scratch Go reproduction of
// "Virtualized Logical Qubits: A 2.5D Architecture for Error-Corrected
// Quantum Computing" (Duckering, Baker, Schuster, Chong — MICRO 2020,
// arXiv:2009.01982).
//
// The library spans the full system the paper describes:
//
//   - rotated-surface-code geometry and the Natural/Compact hardware
//     embeddings with their resource accounting (Fig. 1/2/7/8, Table II);
//   - gate-level syndrome-extraction circuits for the five evaluated setups
//     (Baseline 2D; Natural and Compact, each All-at-once or Interleaved,
//     including the pipelined Fig. 10 schedule) with circuit-level Pauli
//     noise from the Table I hardware model, split into a structural build
//     and a cheap per-noise-scale re-annotation;
//   - detector-error-model extraction split the same way (an immutable
//     fault Structure reweighted per noise scale, with the decoding-graph
//     topology hoisted alongside it so each scale pays only an edge
//     reweight), word-packed 64-shot batch sampling with geometric
//     skip-sampling over rare mechanisms, union-find and sparse-blossom
//     exact minimum-weight-matching decoders with allocation-free batch
//     entry points, a Monte-Carlo engine with a bounded LRU structure
//     cache, per-shard ChaCha8 streams, optional early stopping, and an
//     importance-sampled rare-event mode (boosted proposal sampling with
//     likelihood-ratio-weighted estimates, error bars, and effective
//     sample sizes for deep sub-threshold points), a
//     sweep scheduler draining whole threshold/sensitivity grids
//     (Fig. 11 / Fig. 12) through one shared worker pool with streamed,
//     deterministic per-cell results, and an HTTP/JSON serving front end
//     (SweepServer, cmd/vlqserve) that runs sweeps as cancellable jobs
//     streaming NDJSON/SSE cells, sharing one engine across clients;
//   - the virtualized-logical-qubit machine: virtual/physical addressing,
//     load/store paging, DRAM-like refresh scheduling, qubit movement, and
//     transversal-CNOT vs lattice-surgery operation latencies (§III);
//   - magic-state distillation throughput/footprint models (Fig. 13);
//   - exact stabilizer-tableau verification, including process tomography
//     of the transversal CNOT on full logical patches (§III-B).
//
// Quickstart:
//
//	res, err := vlq.RunMonteCarlo(vlq.MonteCarloConfig{
//		Scheme:   vlq.CompactInterleaved,
//		Distance: 3,
//		Params:   vlq.DefaultHardware().ScaledGatesTo(2e-3),
//		Trials:   10_000,
//	})
//
// See examples/ for runnable scenarios and bench_test.go for the harness
// that regenerates every table and figure of the paper's evaluation.
package vlq

import (
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/fabric"
	"repro/internal/hardware"
	"repro/internal/layout"
	"repro/internal/magic"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/surgery"
	"repro/internal/tomo"
)

// Hardware model (Table I).
type (
	// HardwareParams is the device model: Table I coherence times and gate
	// durations plus per-operation Pauli error probabilities.
	HardwareParams = hardware.Params
	// PhysicalAddr identifies a stack of transmons (a physical address).
	PhysicalAddr = hardware.PhysicalAddr
	// VirtualAddr is a logical qubit's resting place: stack plus cavity mode.
	VirtualAddr = hardware.VirtualAddr
)

// DefaultHardware returns the Table I starting-point hardware model.
func DefaultHardware() HardwareParams { return hardware.Default() }

// PRef is the paper's typical operating point (2e-3) used in §VI.
const PRef = hardware.PRef

// Surface-code geometry and embeddings.
type (
	// Code is a distance-d rotated surface code patch.
	Code = layout.Code
	// Embedding maps a Code onto transmons and cavities.
	Embedding = layout.Embedding
	// EmbeddingKind selects Baseline2D, Natural, or Compact.
	EmbeddingKind = layout.EmbeddingKind
	// Resources summarizes hardware cost (the Table II quantities).
	Resources = layout.Resources
)

// Embedding kinds.
const (
	Baseline2DEmbedding = layout.Baseline2D
	NaturalEmbedding    = layout.Natural
	CompactEmbedding    = layout.Compact
)

// NewRotatedCode constructs the distance-d rotated surface code.
func NewRotatedCode(d int) (*Code, error) { return layout.NewRotated(d) }

// NewEmbedding maps code c onto hardware under the given embedding kind.
func NewEmbedding(kind EmbeddingKind, c *Code) (*Embedding, error) {
	return layout.NewEmbedding(kind, c)
}

// EmbeddingResources returns the hardware cost of one distance-d patch with
// cavity depth k.
func EmbeddingResources(kind EmbeddingKind, d, k int) Resources {
	return layout.EmbeddingResources(kind, d, k)
}

// Baseline2DPatchesResources is the cost of n contiguous baseline patches.
func Baseline2DPatchesResources(n, d int) Resources {
	return layout.Baseline2DPatchesResources(n, d)
}

// Syndrome-extraction experiments.
type (
	// Scheme is one of the five evaluated extraction setups.
	Scheme = extract.Scheme
	// Basis selects the memory experiment (Z or X).
	Basis = extract.Basis
	// ExperimentConfig describes an experiment to build.
	ExperimentConfig = extract.Config
	// Experiment is a built noisy memory experiment with detectors and a
	// logical observable.
	Experiment = extract.Experiment
)

// The five extraction schemes of Fig. 11.
const (
	Baseline           = extract.Baseline
	NaturalAllAtOnce   = extract.NaturalAllAtOnce
	NaturalInterleaved = extract.NaturalInterleaved
	CompactAllAtOnce   = extract.CompactAllAtOnce
	CompactInterleaved = extract.CompactInterleaved
)

// Memory experiment bases.
const (
	BasisZ = extract.BasisZ
	BasisX = extract.BasisX
)

// Schemes lists all five setups in Fig. 11 order.
var Schemes = extract.Schemes

// BuildExperiment constructs a memory experiment.
func BuildExperiment(cfg ExperimentConfig) (*Experiment, error) { return extract.Build(cfg) }

// Detector error models and decoders.
type (
	// DetectorModel is the merged fault model of an experiment at one
	// noise scale.
	DetectorModel = dem.Model
	// DetectorStructure is the immutable, noise-independent half of a
	// detector error model: build once per circuit structure, Reweight per
	// noise scale.
	DetectorStructure = dem.Structure
	// DecodingGraphStructure is the hoisted, noise-independent half of a
	// decoding graph (detector decomposition, edge topology, boundary
	// assignment), built once per DetectorStructure and weighted per noise
	// scale.
	DecodingGraphStructure = dem.GraphStructure
	// BatchSampler draws 64 word-packed shots per pass from a model.
	BatchSampler = dem.BatchSampler
	// DecodingGraph is the weighted matching graph decoders consume.
	DecodingGraph = dem.Graph
	// Decoder predicts the logical observable from fired detectors.
	Decoder = decoder.Decoder
	// BatchDecoder decodes many shots per call with reusable buffers.
	BatchDecoder = decoder.BatchDecoder
	// DecodeBatchBuffer is the reusable flat shot container BatchDecoders
	// consume.
	DecodeBatchBuffer = decoder.Batch
)

// BuildDetectorModel enumerates and merges the experiment's faults.
func BuildDetectorModel(e *Experiment) (*DetectorModel, error) { return dem.Build(e) }

// BuildDetectorStructure enumerates and merges the experiment's faults
// without fixing probabilities; Reweight it with Experiment.NoiseProbs for
// each noise scale of a sweep.
func BuildDetectorStructure(e *Experiment) (*DetectorStructure, error) {
	return dem.BuildStructure(e)
}

// NewUnionFindDecoder returns the weighted union-find decoder (also a
// BatchDecoder).
func NewUnionFindDecoder(g *DecodingGraph) Decoder { return decoder.NewUnionFind(g) }

// NewBlossomDecoder returns the sparse-blossom exact minimum-weight
// matching decoder (also a BatchDecoder): strictly minimum-weight
// corrections at union-find-like per-shot cost.
func NewBlossomDecoder(g *DecodingGraph) Decoder { return decoder.NewBlossom(g) }

// Monte-Carlo engine (Fig. 11 / Fig. 12).
type (
	// MonteCarloConfig describes one logical-error-rate measurement.
	MonteCarloConfig = montecarlo.Config
	// MonteCarloResult is its outcome.
	MonteCarloResult = montecarlo.Result
	// SweepPoint is one cell of a threshold sweep.
	SweepPoint = montecarlo.SweepPoint
	// SensitivityPanel identifies one Fig. 12 study.
	SensitivityPanel = montecarlo.Panel
	// SensitivityPoint is one cell of a sensitivity sweep.
	SensitivityPoint = montecarlo.SensitivityPoint
	// DecoderKind selects the trial decoder ("uf" or "blossom").
	DecoderKind = montecarlo.DecoderKind
	// MonteCarloEngine caches circuit structures and detector-error-model
	// Structures across the points of a sweep.
	MonteCarloEngine = montecarlo.Engine
	// SweepOptions tunes sweeps (early stopping, rare-event mode).
	SweepOptions = montecarlo.SweepOptions
	// WeightedMonteCarloResult is the importance-sampled tally of a
	// rare-event run: likelihood-ratio-weighted estimate, variance,
	// relative error, and effective sample size, merging deterministically
	// like MonteCarloResult (see MonteCarloResult.Weighted).
	WeightedMonteCarloResult = montecarlo.WeightedResult
	// WeightedBatchSampler samples 64-shot batches from a boosted proposal
	// model while tracking per-shot log likelihood ratios against the
	// target model.
	WeightedBatchSampler = dem.WeightedBatchSampler
)

// DefaultRareEventBoost is the proposal boost factor rare-event runs use
// when MonteCarloConfig.Boost is zero.
const DefaultRareEventBoost = montecarlo.DefaultBoost

// NewWeightedBatchSampler returns a sampler drawing from proposal while
// weighting shots back to target; the models must share fault structure.
func NewWeightedBatchSampler(target, proposal *DetectorModel) (*WeightedBatchSampler, error) {
	return dem.NewWeightedBatchSampler(target, proposal)
}

// NewMonteCarloEngine returns an engine with an empty structure cache,
// bounded by LRU eviction at the default entry cap. The package-level
// RunMonteCarlo and sweep functions share one default engine; use a
// dedicated engine to bound its cache's lifetime.
func NewMonteCarloEngine() *MonteCarloEngine { return montecarlo.NewEngine() }

// NewMonteCarloEngineWithCache returns an engine whose structure cache
// holds at most maxEntries entries (LRU eviction; <= 0 disables eviction).
func NewMonteCarloEngineWithCache(maxEntries int) *MonteCarloEngine {
	return montecarlo.NewEngineWithCache(maxEntries)
}

// The sweep scheduler (serving-oriented sweep execution).
type (
	// SweepScheduler drains sweep cells through one shared worker pool over
	// a MonteCarloEngine, streaming per-cell results as they finish while
	// keeping results deterministic regardless of pool width.
	SweepScheduler = sched.Scheduler
	// SweepSchedulerOptions tunes the pool width, queue order, and result
	// streaming.
	SweepSchedulerOptions = sched.Options
	// SweepQueueOrder selects the job-queue order (cost-descending by
	// default, FIFO as the benchmark baseline).
	SweepQueueOrder = sched.QueueOrder
	// SweepJob is one schedulable sweep cell (a Monte-Carlo config plus an
	// opaque tag).
	SweepJob = sched.Job
	// SweepCellResult is one finished cell, indexed by submission order.
	SweepCellResult = sched.CellResult
	// ThresholdSweepCell tags a Fig. 11 grid cell on a SweepJob.
	ThresholdSweepCell = sched.ThresholdCell
	// SensitivitySweepCell tags a Fig. 12 panel cell on a SweepJob.
	SensitivitySweepCell = sched.SensitivityCell
	// MonteCarloWorkerState is the reusable per-worker scratch threaded
	// through consecutive cells by the scheduler, which borrows it from
	// the engine's free list of idle states.
	MonteCarloWorkerState = montecarlo.WorkerState
)

// Queue orders for SweepSchedulerOptions.Queue.
const (
	SweepOrderCost = sched.OrderCost
	SweepOrderFIFO = sched.OrderFIFO
)

// NewSweepScheduler returns a scheduler over the engine (a fresh engine if
// nil).
func NewSweepScheduler(en *MonteCarloEngine, opts SweepSchedulerOptions) *SweepScheduler {
	return sched.New(en, opts)
}

// SweepCellCost estimates a cell's relative decode cost (detectors x
// rounds x trials) — the scheduler's longest-first ordering key.
func SweepCellCost(cfg MonteCarloConfig) float64 { return sched.CellCost(cfg) }

// ThresholdSweepJobs builds a Fig. 11 grid as scheduler jobs.
func ThresholdSweepJobs(scheme Scheme, distances []int, physRates []float64, base HardwareParams, trials int, seed int64, dec DecoderKind, opts SweepOptions) []SweepJob {
	return sched.ThresholdJobs(scheme, distances, physRates, base, trials, seed, dec, opts)
}

// SensitivitySweepJobs builds one Fig. 12 panel as scheduler jobs.
func SensitivitySweepJobs(panel SensitivityPanel, values []float64, distances []int, trials int, seed int64, dec DecoderKind, opts SweepOptions) ([]SweepJob, error) {
	return sched.SensitivityJobs(panel, values, distances, trials, seed, dec, opts)
}

// The sweep-serving front end (HTTP/JSON over the scheduler).
type (
	// SweepServer is the HTTP front end: POST /v1/sweeps submits
	// threshold/sensitivity jobs whose cells stream back as NDJSON or SSE,
	// with job status/cancel, engine cache stats, and bounded concurrency.
	// It implements http.Handler; see cmd/vlqserve for a ready-made binary.
	SweepServer = serve.Server
	// SweepServerConfig tunes the server: shared engine, concurrent-job
	// and queue-depth bounds, default pool width, retained finished jobs.
	SweepServerConfig = serve.Config
	// SweepServerRequest is the POST /v1/sweeps body.
	SweepServerRequest = serve.SweepRequest
	// SweepServerCellRecord is one streamed cell (NDJSON line / SSE event).
	SweepServerCellRecord = serve.CellRecord
	// SweepServerJobStatus is one job's wire-form status.
	SweepServerJobStatus = serve.JobStatus
	// SweepServerStats is the GET /v1/stats payload.
	SweepServerStats = serve.StatsResponse
	// EngineCacheStats is a snapshot of a MonteCarloEngine's structure
	// cache counters (builds, hits, evictions, entries).
	EngineCacheStats = montecarlo.CacheStats
)

// NewSweepServer builds the HTTP sweep service (zero Config is usable: a
// fresh default engine, 2 concurrent sweeps, queue of 8).
func NewSweepServer(cfg SweepServerConfig) *SweepServer { return serve.NewServer(cfg) }

// The distributed sweep fabric (lease-based coordinator/worker cluster).
type (
	// FabricHub is the coordinator: it leases sweep shard units to
	// registered workers and merges their results exactly once per unit,
	// bit-identically to a local run — at any worker count, under any
	// fault schedule. See cmd/vlqfabric and vlqserve -fabric-listen.
	FabricHub = fabric.Hub
	// FabricHubOptions tunes the coordinator (lease TTL, clock, janitor).
	FabricHubOptions = fabric.Options
	// FabricRunOptions tunes one submitted sweep run (shard size, queue
	// order, per-cell callback).
	FabricRunOptions = fabric.RunOptions
	// FabricRun is one sweep executing over the fabric.
	FabricRun = fabric.Run
	// FabricWorker pulls leases from a coordinator and executes them on a
	// Monte-Carlo engine; see cmd/vlqworker for a ready-made binary.
	FabricWorker = fabric.Worker
	// FabricWorkerOptions tunes a worker (engine, polling, heartbeats).
	FabricWorkerOptions = fabric.WorkerOptions
	// FabricTransport is a worker's view of a coordinator: in-process
	// (FabricLocal) or HTTP/JSON (FabricHTTPTransport).
	FabricTransport = fabric.Transport
	// FabricLocal binds a worker directly to an in-process hub.
	FabricLocal = fabric.Local
	// FabricHTTPTransport speaks the fabric JSON protocol to a remote
	// coordinator (the Hub's Handler serves it).
	FabricHTTPTransport = fabric.HTTPTransport
	// FabricStats is the coordinator's counter snapshot (workers, leases,
	// exactly-once merge outcomes).
	FabricStats = fabric.Stats
)

// NewFabricHub returns a fabric coordinator ready to accept runs and
// workers.
func NewFabricHub(opts FabricHubOptions) *FabricHub { return fabric.NewHub(opts) }

// NewFabricWorker returns a fabric worker over the transport.
func NewFabricWorker(tr FabricTransport, opts FabricWorkerOptions) *FabricWorker {
	return fabric.NewWorker(tr, opts)
}

// RunMonteCarloReference measures one logical error rate on the
// pre-batching scalar engine (fresh model build per call, one RNG draw per
// mechanism per shot). It exists to benchmark and cross-check the batched
// engine.
func RunMonteCarloReference(cfg MonteCarloConfig) (MonteCarloResult, error) {
	return montecarlo.RunReference(cfg)
}

// Decoder kinds for Monte-Carlo trials: union-find (the default) and
// sparse-blossom exact matching.
const (
	DecodeUnionFind = montecarlo.UF
	DecodeBlossom   = montecarlo.Blossom
)

// DecoderKinds lists every selectable decoder kind.
var DecoderKinds = decoder.Kinds

// SensitivityPanels lists the seven Fig. 12 panels.
var SensitivityPanels = montecarlo.Panels

// RunMonteCarlo measures one logical error rate on the calling goroutine,
// through the engine the sweeps below share, on one of its idle warm
// worker states. The result depends on cfg alone, not on GOMAXPROCS.
func RunMonteCarlo(cfg MonteCarloConfig) (MonteCarloResult, error) {
	return sweeps.Engine().RunOn(cfg, nil)
}

// sweeps runs ThresholdSweep and SensitivitySweep. Its cells run as
// Engine.RunOn does, so the points do not depend on GOMAXPROCS.
var sweeps = sched.New(nil, sched.Options{})

// ThresholdSweep runs a Fig. 11 grid for one scheme.
func ThresholdSweep(scheme Scheme, distances []int, physRates []float64, base HardwareParams, trials int, seed int64, dec DecoderKind) ([]SweepPoint, error) {
	return sweeps.ThresholdSweep(scheme, distances, physRates, base, trials, seed, dec, SweepOptions{})
}

// EstimateThreshold interpolates the crossing point of a sweep.
func EstimateThreshold(points []SweepPoint) float64 { return montecarlo.EstimateThreshold(points) }

// DefaultPhysRates returns a log grid bracketing the threshold region.
func DefaultPhysRates(n int) []float64 { return montecarlo.DefaultPhysRates(n) }

// SensitivitySweep runs one Fig. 12 panel on Compact-Interleaved.
func SensitivitySweep(panel SensitivityPanel, values []float64, distances []int, trials int, seed int64, dec DecoderKind) ([]SensitivityPoint, error) {
	return sweeps.SensitivitySweep(panel, values, distances, trials, seed, dec, SweepOptions{})
}

// OperatingPoint returns the §VI baseline parameters (all gate errors 2e-3).
func OperatingPoint() HardwareParams { return montecarlo.OperatingPoint() }

// The VLQ machine (the paper's core contribution).
type (
	// Machine is a virtualized-logical-qubit machine.
	Machine = core.Machine
	// MachineConfig describes one.
	MachineConfig = core.Config
	// MachineStats is its schedule accounting.
	MachineStats = core.Stats
	// QubitID names an allocated logical qubit.
	QubitID = core.QubitID
)

// NewMachine builds a VLQ machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return core.New(cfg) }

// Logical operation latencies in timesteps (rounds of d EC cycles).
const (
	CostCNOTSurgery     = surgery.CostCNOTSurgery
	CostCNOTTransversal = surgery.CostCNOTTransversal
	CostMove            = surgery.CostMove
)

// Magic-state distillation (§VII).
type (
	// DistillationProtocol is one Fig. 13 contender.
	DistillationProtocol = magic.Protocol
)

// The §VII protocols.
var (
	FastLattice  = magic.FastLattice
	SmallLattice = magic.SmallLattice
	VQubits      = magic.VQubits
	VQubitsSolo  = magic.VQubitsSolo
)

// DistillationProtocols lists the Fig. 13 contenders.
var DistillationProtocols = magic.Protocols

// Circuit15to1Counts returns the §VII 15-to-1 operation inventory.
func Circuit15to1Counts() magic.Distill15to1Counts { return magic.Circuit15to1Counts() }

// EstimateVQubitsSchedule runs the 15-to-1 dataflow on a VLQ machine.
func EstimateVQubitsSchedule(params HardwareParams, d int) (magic.ScheduleEstimate, error) {
	return magic.EstimateVQubitsSchedule(params, d)
}

// Process tomography (§III-B).
type (
	// TomographyReport is the transversal-CNOT verification result.
	TomographyReport = tomo.Report
)

// VerifyTransversalCNOT runs stabilizer process tomography of the
// transversal CNOT on two full distance-d patches sharing one stack.
func VerifyTransversalCNOT(d int) (*TomographyReport, error) {
	return tomo.VerifyTransversalCNOT(d)
}
