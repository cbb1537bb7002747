package montecarlo

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/decoder"
	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// DecoderKind selects the decoder used for trials — an alias of
// decoder.Kind so the same vocabulary flows from CLI flags and serve
// requests through job specs to the per-worker decode loop.
type DecoderKind = decoder.Kind

// Available decoders. UF is the conservative workhorse; Blossom is the
// sparse-blossom exact matcher: minimum-weight corrections, within about
// 26% of union-find's per-shot cost either way at p=1e-3 but 2.5-21x
// union-find's at d=11 for p >= 0.005.
const (
	UF      = decoder.KindUF
	Blossom = decoder.KindBlossom
)

// Config describes one Monte-Carlo point.
type Config struct {
	Scheme   extract.Scheme
	Distance int
	Rounds   int // 0 => Distance
	Basis    extract.Basis
	Params   hardware.Params
	Trials   int
	Seed     int64
	Decoder  DecoderKind
	// ChargeGapIdle forwards to extract.Config: include the cavity
	// serialization gaps as storage noise (Fig. 12 mode).
	ChargeGapIdle bool
	// TargetFailures, when positive, ends the point early once this many
	// logical failures have accumulated across shards; Trials then acts as
	// a cap and Result.Trials reports the shots actually taken. Early
	// stopping trades the fixed-trial-count determinism for bounded
	// relative error per point (the standard sequential-sampling mode for
	// threshold sweeps).
	TargetFailures int
	// RareEvent switches the point to importance-sampled estimation: shots
	// are drawn from a proposal model whose fault-source probabilities are
	// inflated by Boost, each shot carries its likelihood-ratio weight, and
	// the logical rate comes from Result.Weighted instead of raw failure
	// counts. The mode exists for deep-subthreshold cells (d >= 9 at
	// p ~ 1e-3) where brute force observes zero failures at any affordable
	// trial count. See rare.go and the ARCHITECTURE.md section.
	RareEvent bool
	// Boost is the proposal inflation factor for RareEvent mode: per-op
	// probabilities below 1/2 scale by Boost (clamped at 1/2). Zero selects
	// DefaultBoost; values must be >= 1. Boost = 1 makes the proposal equal
	// the target, reproducing the unweighted sampler bit for bit with all
	// weights exactly 1.
	Boost float64
	// TargetRelErr, when positive in RareEvent mode, ends the point early
	// once the pooled weighted estimate's relative standard error reaches
	// this value — the weighted analog of TargetFailures (which is undefined
	// for weighted tallies and rejected). Trials then acts as a cap.
	TargetRelErr float64
	// DisablePipeline turns off the batch decode pipeline (zero-defect skip
	// + syndrome dedup) and decodes every shot through the unpruned path.
	// The zero value — pipeline on — is the production configuration;
	// predictions are bit-identical either way (the pipeline's contract,
	// pinned by the conformance tests), so the switch exists for the
	// conformance tests and the benchmarks, which set it here directly; no
	// user surface exposes it.
	DisablePipeline bool
}

func (cfg Config) extractConfig() extract.Config {
	return extract.Config{
		Scheme: cfg.Scheme, Distance: cfg.Distance, Rounds: cfg.Rounds,
		Basis: cfg.Basis, Params: cfg.Params,
		ChargeGapIdle: cfg.ChargeGapIdle,
	}
}

// Counts is the per-cell tally every execution path produces and merges:
// a shard, a merged Result, and the serving front end's process-wide
// decode totals. Every field is a plain sum (or, for Weighted, an ordered
// fold), so one Add carries the counters through RunOn, RunShardOn,
// MergeShards, and the fabric wire.
type Counts struct {
	Trials   int // shots actually taken (< Config.Trials under early stop)
	Failures int // failing shots (raw proposal shots in RareEvent mode)
	// Skipped counts zero-defect shots answered by the pipeline's word-level
	// fast path without touching the decoder; DedupHits counts shots whose
	// syndrome duplicated an earlier shot of the same batch and replayed its
	// prediction. Both are zero when the pipeline is disabled.
	Skipped   int
	DedupHits int
	// Stats sums the decoder-internal stage counters (growth rounds,
	// alternating-tree phases, ...) over every shot. Pure sums, so worker
	// and shard merges are bit-identical at any pool width.
	Stats decoder.DecoderStats
	// Weighted is the importance-sampling tally, populated only in RareEvent
	// mode (the estimate and error bar live here).
	Weighted WeightedResult
}

// Add folds o into c. The integer sums commute but Weighted's float sums
// do not, so callers fold parts in worker or shard index order.
func (c *Counts) Add(o Counts) {
	c.Trials += o.Trials
	c.Failures += o.Failures
	c.Skipped += o.Skipped
	c.DedupHits += o.DedupHits
	c.Stats.Add(o.Stats)
	c.Weighted.Add(o.Weighted)
}

// Result is the outcome of one Monte-Carlo point: its counters plus the
// dimensions of the underlying model.
type Result struct {
	Config Config
	Counts
	Mechanisms    int
	DetectorCount int
}

// Rate returns the logical error rate: the weighted estimate in RareEvent
// mode, the raw failure fraction otherwise.
func (r Result) Rate() float64 {
	if r.Config.RareEvent {
		return r.Weighted.Estimate()
	}
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Trials)
}

// StdErr returns the standard error of Rate: the weighted sampling error in
// RareEvent mode, the binomial error otherwise.
func (r Result) StdErr() float64 {
	if r.Config.RareEvent {
		return r.Weighted.StdErr()
	}
	if r.Trials == 0 {
		return 0
	}
	p := r.Rate()
	return math.Sqrt(p * (1 - p) / float64(r.Trials))
}

// RelErr returns StdErr/Rate for either mode (+Inf when the rate is zero
// over a nonzero sample, 0 on an empty result).
func (r Result) RelErr() float64 {
	if r.Config.RareEvent {
		return r.Weighted.RelErr()
	}
	rate := r.Rate()
	if rate <= 0 {
		if r.Trials > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return r.StdErr() / rate
}

// ESS returns the effective sample size: the Kish ESS of the weighted tally
// in RareEvent mode, the raw trial count otherwise.
func (r Result) ESS() float64 {
	if r.Config.RareEvent {
		return r.Weighted.ESS()
	}
	return float64(r.Trials)
}

// DefaultCacheEntries is NewEngine's structure-cache bound. Each entry is
// one (scheme, distance, rounds, basis, durations) experiment plus its
// fault Structure and hoisted graph topology; 64 comfortably covers every
// figure of the paper while keeping a long-lived serving engine bounded.
const DefaultCacheEntries = 64

// Engine runs Monte-Carlo points over a bounded LRU cache of circuit
// structures and detector-error-model Structures. One Engine serves whole
// sweeps; it is safe for concurrent use. The zero value is not usable —
// call NewEngine or NewEngineWithCache.
type Engine struct {
	mu    sync.Mutex
	max   int                                   // cache entry cap; <= 0 means unbounded
	cache map[extract.StructuralKey]*cacheEntry // guarded by mu
	order *list.List                            // of *cacheEntry, most recent at front; guarded by mu

	builds    atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64

	// idle is the free list of warm worker states (AcquireState); made
	// counts the states ever created.
	stateMu sync.Mutex
	idle    []*WorkerState // guarded by stateMu
	made    atomic.Int64
}

type cacheEntry struct {
	key  extract.StructuralKey
	elem *list.Element
	once sync.Once
	exp  *extract.Experiment
	st   *dem.Structure
	err  error
}

// NewEngine returns an empty engine with the default cache bound.
func NewEngine() *Engine { return NewEngineWithCache(DefaultCacheEntries) }

// NewEngineWithCache returns an empty engine whose structure cache holds at
// most maxEntries entries, evicting least-recently-used structures beyond
// that; maxEntries <= 0 disables eviction.
func NewEngineWithCache(maxEntries int) *Engine {
	return &Engine{
		max:   maxEntries,
		cache: make(map[extract.StructuralKey]*cacheEntry),
		order: list.New(),
	}
}

// CacheStats is a point-in-time snapshot of the engine's structure cache,
// the observable contract of the structure/noise split: a sweep (or a
// serving front end fielding repeated sweeps) should see Builds grow only
// when a genuinely new (scheme, distance, rounds, basis, durations)
// experiment arrives, and Hits grow on every point after that.
type CacheStats struct {
	// Builds counts experiment+Structure constructions — cache misses plus
	// the rare uncached parameter-mismatch rebuilds (see Engine.prepare).
	Builds int64 `json:"builds"`
	// Hits counts cache lookups that found an existing entry (including
	// entries still being built by another goroutine, which the caller
	// then shares).
	Hits int64 `json:"hits"`
	// Evictions counts entries dropped by LRU eviction.
	Evictions int64 `json:"evictions"`
	// Entries is the current cache population (<= the configured cap).
	Entries int `json:"entries"`
	// WorkerStates counts the worker states the engine has created
	// (AcquireState): at most the most pool workers ever running on it at
	// once, however many sweeps they served.
	WorkerStates int64 `json:"worker_states"`
}

// CacheStats returns a consistent snapshot of the cache counters. The
// counters are monotonic for the engine's lifetime, so two snapshots
// bracket the work in between: equal Builds means every point in the
// interval reused a cached structure.
func (en *Engine) CacheStats() CacheStats {
	en.mu.Lock()
	entries := len(en.cache)
	en.mu.Unlock()
	return CacheStats{
		Builds:       en.builds.Load(),
		Hits:         en.hits.Load(),
		Evictions:    en.evictions.Load(),
		Entries:      entries,
		WorkerStates: en.made.Load(),
	}
}

// AcquireState returns an idle WorkerState from the engine's free list,
// the one most recently released, or a new one if none is idle. Every
// scheduler pool worker on the engine, and every one-shot RunOn, runs on
// one, so a cell finds the buffers, sampler tables and decoders that
// earlier cells grew, whichever sweep they belonged to. The list never
// holds more states than were ever acquired at once. Hand the state back
// with ReleaseState.
func (en *Engine) AcquireState() *WorkerState {
	en.stateMu.Lock()
	defer en.stateMu.Unlock()
	if n := len(en.idle); n > 0 {
		st := en.idle[n-1]
		en.idle = en.idle[:n-1]
		return st
	}
	en.made.Add(1)
	return &WorkerState{}
}

// ReleaseState returns st, which the caller no longer uses, to the free
// list, out of any crew it joined.
func (en *Engine) ReleaseState(st *WorkerState) {
	st.JoinCrew(nil)
	en.stateMu.Lock()
	en.idle = append(en.idle, st)
	en.stateMu.Unlock()
}

// structure returns the cached (or freshly built) structural halves for
// the configuration, promoting the entry to most-recently-used and evicting
// beyond the cap. An in-flight entry that gets evicted finishes building
// for the goroutines already holding it; it is simply no longer shared.
func (en *Engine) structure(cfg extract.Config) (*cacheEntry, error) {
	key := cfg.StructuralKey()
	en.mu.Lock()
	e, ok := en.cache[key]
	if ok {
		en.hits.Add(1)
		en.order.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{key: key}
		e.elem = en.order.PushFront(e)
		en.cache[key] = e
		for en.max > 0 && len(en.cache) > en.max {
			back := en.order.Back()
			old := back.Value.(*cacheEntry)
			en.order.Remove(back)
			delete(en.cache, old.key)
			en.evictions.Add(1)
		}
	}
	en.mu.Unlock()
	e.once.Do(func() {
		en.builds.Add(1)
		e.exp, e.err = extract.Build(cfg)
		if e.err == nil {
			e.st, e.err = dem.BuildStructure(e.exp)
		}
	})
	return e, e.err
}

// workerSeed derives the 32-byte ChaCha8 seed of stream w of a point: shard
// w of a shard plan, stream 0 for an unsharded point. Hashing (seed, w)
// keeps streams independent for every shard count, unlike the additive
// seed+w*constant scheme it replaces, which made streams of nearby seeds
// collide across points.
func workerSeed(seed int64, w int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(w))
	return sha256.Sum256(buf[:])
}

// normalize validates the point configuration and fills decoder defaults.
func (cfg *Config) normalize() error {
	if cfg.Trials <= 0 {
		return fmt.Errorf("montecarlo: trials must be positive")
	}
	if cfg.Decoder == "" {
		cfg.Decoder = UF
	}
	if _, err := decoder.ParseKind(string(cfg.Decoder)); err != nil {
		return fmt.Errorf("montecarlo: %w", err)
	}
	return cfg.normalizeRare()
}

// prepare resolves one point to its reweighted model and weighted decoding
// graph, going through the structure cache: the noise vector, its model,
// and the graph weighted from that model. A rare-event point also gets the
// boosted proposal model (shared footprints, a second probability column,
// aligned to the target's zero-support and always-fire classes); the graph
// stays the target's, so corrections are minimum-weight under the true
// noise while shots are drawn from the proposal. Plain points get a nil
// proposal, the signal runCell switches on. st donates its noise-vector,
// Model and Graph buffers, and the results are stored back on it: the graph
// returned is st's own, reweighted in place under a new generation.
func (en *Engine) prepare(cfg Config, st *WorkerState) (model, prop *dem.Model, graph *dem.Graph, err error) {
	ecfg := cfg.extractConfig()
	entry, err := en.structure(ecfg)
	if err != nil {
		return nil, nil, nil, err
	}
	exp, s := entry.exp, entry.st
	noise, err := exp.NoiseProbs(cfg.Params, st.noise[:0])
	if err != nil {
		// The cached structure cannot serve these parameters — typically a
		// noise class that was zero when the entry was built (absent from
		// its fault set in a way the structural key cannot always see, e.g.
		// idle error underflowing to zero under extreme coherence times).
		// Build a dedicated, uncached structure so the run still succeeds;
		// repeated runs in this regime pay a rebuild each time.
		if exp, err = extract.Build(ecfg); err != nil {
			return nil, nil, nil, err
		}
		en.builds.Add(1)
		if s, err = dem.BuildStructure(exp); err != nil {
			return nil, nil, nil, err
		}
		if noise, err = exp.NoiseProbs(cfg.Params, st.noise[:0]); err != nil {
			return nil, nil, nil, err
		}
	}
	st.noise = noise
	if st.model, err = s.ReweightInto(noise, st.model); err != nil {
		return nil, nil, nil, err
	}
	model = st.model
	if cfg.RareEvent {
		st.wnoise = boostProbs(cfg.Boost, noise, st.wnoise[:0])
		if st.wmodel, err = s.ReweightInto(st.wnoise, st.wmodel); err != nil {
			return nil, nil, nil, err
		}
		prop = st.wmodel
		alignProposal(model, prop)
	}
	gs, err := model.GraphStructure()
	if err != nil {
		return nil, nil, nil, err
	}
	// A new generation before the graph is rewritten in place: decoders
	// bound to the previous weighting must rebind (see bind).
	st.graphGen++
	if err := gs.WeightInto(model, &st.graph); err != nil {
		return nil, nil, nil, err
	}
	return model, prop, &st.graph, nil
}

// WorkerState is reusable per-worker scratch for point execution: the
// noise-vector, model and decoding-graph buffers, the batch decode buffers,
// and rebindable sampler/decoder state. A sweep scheduler threads one
// WorkerState, borrowed from the engine (AcquireState), through the
// consecutive cells a pool worker executes, so on a structure-cache hit a
// cell reweights into the worker's model and graph and rebinds its
// sampler tables and decoder arrays, whatever the cell's
// distance, instead of reallocating them: once the worker has run its
// largest cell, that path allocates almost nothing. Joined to a Crew
// (JoinCrew), it also carries the slots its cells lend to idle pool
// workers, and as a helper it decodes other cells' slots (DecodeSlot). The
// zero value is ready to use; a WorkerState must not be shared between
// concurrent calls.
type WorkerState struct {
	noise []float64
	model *dem.Model
	// graph is the decoding graph prepare weighs each cell into, and
	// graphGen counts those weighings, so that a decoder bound to an
	// earlier one rebinds although the pointer is the same.
	graph    dem.Graph
	graphGen uint64
	batch    decoder.Batch
	out      [dem.BatchShots]bool
	bs       *dem.BatchSampler
	uf       decoder.UnionFind
	bl       decoder.Blossom
	pipe     *decoder.Pipeline
	// The current decode binding (see bind): the decoder over generation
	// decGen of decGraph.
	dec      decoder.BatchDecoder
	decKind  DecoderKind
	decGraph *dem.Graph
	decGen   uint64
	// The owner side of a cell's batches, and the crew it lends them to.
	lane *lane
	crew *Crew
	// Rare-event siblings of noise/model/bs: the boosted proposal column,
	// its folded model, and the weighted sampler over the pair.
	wnoise []float64
	wmodel *dem.Model
	wsamp  *dem.WeightedBatchSampler
}

// samplerFor returns the batch sampler for one cell, reusing the worker's
// tables: the plain sampler over model, or — for a rare-event cell, prop
// non-nil — the BatchSampler embedded in the weighted sampler over the
// (model, prop) pair, returned alongside for its per-shot weights.
func (st *WorkerState) samplerFor(model, prop *dem.Model) (*dem.BatchSampler, *dem.WeightedBatchSampler, error) {
	if prop == nil {
		if st.bs == nil {
			st.bs = model.NewBatchSampler()
		} else {
			st.bs.Reset(model)
		}
		return st.bs, nil, nil
	}
	if st.wsamp == nil {
		ws, err := dem.NewWeightedBatchSampler(model, prop)
		if err != nil {
			return nil, nil, err
		}
		st.wsamp = ws
	} else if err := st.wsamp.Reset(model, prop); err != nil {
		return nil, nil, err
	}
	return &st.wsamp.BatchSampler, st.wsamp, nil
}

// decoderFor returns the worker's union-find or blossom decoder rebound to
// graph, reusing its arrays whatever the graph's shape.
func (st *WorkerState) decoderFor(kind DecoderKind, graph *dem.Graph) decoder.BatchDecoder {
	if kind == Blossom {
		st.bl.Rebind(graph)
		return &st.bl
	}
	st.uf.Rebind(graph)
	return &st.uf
}

// pipeline returns the worker's dedup pipeline over inner, creating it on
// first use and rebinding it when inner changes. The epoch-stamped dedup
// table and batch buffers survive across cells exactly like the sampler
// tables do.
func (st *WorkerState) pipeline(inner decoder.BatchDecoder) *decoder.Pipeline {
	if st.pipe == nil {
		st.pipe = decoder.NewPipeline(inner)
	} else if st.pipe.Inner() != inner {
		st.pipe.Rebind(inner)
	}
	return st.pipe
}

// runCell executes shard w's share of one point — the single 64-shot
// loop behind RunOn and RunShardOn in both modes. Batches come from
// stream w's ChaCha8 generator through a *dem.BatchSampler (the plain one,
// or the one embedded in the weighted sampler when prop is non-nil, so
// boost = 1 consumes the stream identically to a plain point), each into a
// Slot that DecodeSlot turns into a failure bitmask. Slots fold strictly
// in batch order: plain points popcount the mask and bank failures toward
// TargetFailures; rare-event points fold the likelihood-ratio weights in
// ascending shot order and bank them toward TargetRelErr. budget
// coordinates that early stop across the point's shards, and
// both it and the abort flag are checked after each fold — the batch
// boundary a serial loop checks at.
//
// Alone, the loop samples one batch, decodes it and folds it. When st has
// joined a Crew with idle helpers, it samples ahead and lends them the
// batches heavy enough to repay the handoff (minLendEvents): never more
// unclaimed than one per idle helper, plus one queued behind each batch a
// helper of this cell holds, so a helper that finishes finds its next
// batch waiting. It decodes every batch no helper claimed itself, and
// waits only on batches a helper holds. Sampling stays serial on this
// goroutine and decoding is a pure function of the batch, so the Counts
// are bit-identical either way; batches sampled past the stop point are
// discarded uncounted.
func runCell(model, prop *dem.Model, graph *dem.Graph, cfg Config, w, trials int, budget *ShardBudget, st *WorkerState) (Counts, error) {
	var c Counts
	bs, ws, err := st.samplerFor(model, prop)
	if err != nil {
		return c, err
	}
	l := st.openLane(cfg.Decoder, graph, !cfg.DisablePipeline)
	defer l.drain()
	rng := rand.New(rand.NewChaCha8(workerSeed(cfg.Seed, w)))
	sampled := 0
	stop := budget.aborted.Load() || budget.TargetMet(cfg)
	for !stop && (sampled < trials || len(l.slots) > 0) {
		v := l.snapshot()
		more := sampled < trials
		// Helpers that will claim a lent batch soon: the idle ones, and one
		// per batch of this cell a helper holds.
		want := v.idle + v.held
		switch {
		case v.headDone:
			s := l.pop()
			if s.err != nil {
				return c, s.err
			}
			c.fold(s, ws != nil, cfg, budget)
			l.release(s)
			stop = budget.aborted.Load() || budget.TargetMet(cfg)
		case more && (v.lent < want || v.lent == want && len(l.slots) < 2*(1+v.held+v.lent)):
			n := min(dem.BatchShots, trials-sampled)
			s := l.sample(bs, ws, rng, n)
			sampled += n
			if v.lent < want && s.shots.Events() >= minLendEvents {
				l.lend(s)
			} else {
				// Every lent batch has a helper coming for it (or this one
				// is too light to lend), so decode it here, running ahead of
				// the helpers within a window of twice their batches.
				s.err, s.done = st.DecodeSlot(s), true
			}
		case v.lent > 0:
			if s := l.reclaim(); s != nil {
				s.err, s.done = st.DecodeSlot(s), true
			}
		default:
			l.waitHead()
		}
	}
	return c, nil
}

// minLendEvents is the fewest fired detectors a batch must carry to be lent
// to a helper; lighter batches are decoded where they were sampled. Handing
// a batch over costs a goroutine wake-up or two, tens of microseconds,
// while union-find decodes roughly one event per microsecond (2-vCPU Xeon
// VM): a d=3 batch at p = 1e-3..2e-3 carries 20-30 events and decodes in
// ~20 us, so lending it costs more than it saves, whereas a d=5 batch at
// the same rates carries 120-160 events (~150-250 us) and already gains.
const minLendEvents = 64

// fold adds one decoded batch to c and banks it toward the early-stop
// target.
func (c *Counts) fold(s *Slot, weighted bool, cfg Config, budget *ShardBudget) {
	fails := bits.OnesCount64(s.failw)
	c.Trials += s.n
	c.Failures += fails
	c.Skipped += s.skipped
	c.DedupHits += s.dedup
	c.Stats.Add(s.stats)
	if !weighted {
		if cfg.TargetFailures > 0 && fails > 0 {
			budget.failures.Add(int64(fails))
		}
		return
	}
	// Weights fold shot by shot into a per-batch delta and deltas batch by
	// batch into the tally — a fixed association, so the sums cannot depend
	// on the pipeline switch, pool width, or which worker decoded the batch.
	var delta WeightedResult
	for i := range s.n {
		delta.addShot(s.w[i], s.failw>>uint(i)&1 != 0)
	}
	c.Weighted.Add(delta)
	if cfg.TargetRelErr > 0 {
		budget.AddWeighted(delta)
	}
}

// RunOn executes one Monte-Carlo point on the calling goroutine from
// stream 0 of cfg.Seed, reusing st's buffers across calls — the one entry
// point of an unsharded point, which the sweep scheduler, the serving
// front end and the public facade all run cells through. If st
// has joined a Crew, idle members may decode some of its batches. The
// result depends on cfg alone: never on GOMAXPROCS, on the pool width the
// caller schedules cells under, or on who helped. st may be nil for
// one-shot use: the point then runs on an idle state of the engine's.
func (en *Engine) RunOn(cfg Config, st *WorkerState) (Result, error) {
	return en.RunOnBudget(cfg, nil, st)
}

// RunOnBudget is RunOn under a caller-held budget: an Abort on budget stops
// the point at its next 64-shot batch boundary, and the Result then counts
// only the batches folded so far. The sweep scheduler holds one budget per
// cell, so a cancelled sweep stops its running cells promptly. A nil
// budget is RunOn. An unsharded point is the one-shard plan, so this is
// RunShardOn's shard 0 of it, merged.
func (en *Engine) RunOnBudget(cfg Config, budget *ShardBudget, st *WorkerState) (Result, error) {
	sr, err := en.RunShardOn(cfg, PlanShards(cfg.Trials, 0), 0, budget, st)
	if err != nil {
		return Result{}, err
	}
	return MergeShards(cfg, []ShardResult{sr})
}

// RunReference executes one Monte-Carlo point on the pre-batching scalar
// engine: a fresh experiment and detector-model build per call, one RNG
// draw per mechanism per shot, and per-shot decoding, all on the calling
// goroutine from one PCG stream of cfg.Seed. Retained as the benchmark
// baseline (BenchmarkSweepRow) and as the statistical reference for
// engine-equivalence tests.
func RunReference(cfg Config) (Result, error) {
	if cfg.Trials <= 0 {
		return Result{}, fmt.Errorf("montecarlo: trials must be positive")
	}
	if cfg.RareEvent {
		return Result{}, fmt.Errorf("montecarlo: RunReference is the brute-force baseline; rare-event mode is not supported")
	}
	if cfg.Decoder == "" {
		cfg.Decoder = UF
	}
	if _, err := decoder.ParseKind(string(cfg.Decoder)); err != nil {
		return Result{}, fmt.Errorf("montecarlo: %w", err)
	}
	exp, err := extract.Build(cfg.extractConfig())
	if err != nil {
		return Result{}, err
	}
	model, err := dem.Build(exp)
	if err != nil {
		return Result{}, err
	}
	graph, err := model.DecodingGraph()
	if err != nil {
		return Result{}, err
	}

	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0))
	sampler := model.NewSampler()
	// Decoder selection goes through the same helper as the batched engine
	// — one switch, so a new Kind cannot diverge between the two paths.
	var st WorkerState
	dec := st.decoderFor(cfg.Decoder, graph)
	res := Result{
		Config:        cfg,
		Counts:        Counts{Trials: cfg.Trials},
		Mechanisms:    model.Stats.Mechanisms,
		DetectorCount: model.NumDets,
	}
	for range cfg.Trials {
		events, truth := sampler.Sample(rng)
		pred, err := dec.Decode(events)
		if err != nil {
			return Result{}, err
		}
		if pred != truth {
			res.Failures++
		}
	}
	return res, nil
}

// SweepPoint is one (distance, physical rate) cell of a threshold sweep.
type SweepPoint struct {
	Distance int
	Phys     float64
	Result   Result
}

// SweepOptions tunes a threshold sweep beyond the required grid.
type SweepOptions struct {
	// TargetFailures enables early stopping per cell (see Config).
	TargetFailures int
	// RareEvent switches every cell to importance-sampled estimation with
	// proposal inflation Boost and optional TargetRelErr early stop (see
	// Config).
	RareEvent    bool
	Boost        float64
	TargetRelErr float64
}

// ThresholdCellConfig is the canonical configuration of one Fig. 11 grid
// cell, the one definition behind internal/sched's ThresholdJobs and any
// caller that runs a cell on its own. The physical rate parameterizes all
// gate error sources through Params.ScaledGatesTo; coherence times stay at
// their Table I values.
func ThresholdCellConfig(scheme extract.Scheme, d int, phys float64, base hardware.Params, trials int, seed int64, dec DecoderKind, opts SweepOptions) Config {
	return Config{
		Scheme:         scheme,
		Distance:       d,
		Basis:          extract.BasisZ,
		Params:         base.ScaledGatesTo(phys),
		Trials:         trials,
		Seed:           seed + int64(d)*7919 + int64(phys*1e9),
		Decoder:        dec,
		TargetFailures: opts.TargetFailures,
		RareEvent:      opts.RareEvent,
		Boost:          opts.Boost,
		TargetRelErr:   opts.TargetRelErr,
	}
}

// EstimateThreshold finds the crossing point of the logical-error curves for
// consecutive distances: below threshold larger d gives lower logical error,
// above it gives higher. It interpolates each sign change of
// rate(d2)-rate(d1) in log-p and averages the crossings. A zero gap (a tie)
// at a grid rate counts as a crossing there only when the pair's last
// nonzero gap at a lower rate was negative, so a tie with nothing below it
// is not taken for a crossing. Returns 0 if no crossing is bracketed by the
// sweep.
func EstimateThreshold(points []SweepPoint) float64 {
	byDist := map[int]map[float64]float64{}
	var dists []int
	var rates []float64
	seenD := map[int]bool{}
	seenP := map[float64]bool{}
	for _, pt := range points {
		if byDist[pt.Distance] == nil {
			byDist[pt.Distance] = map[float64]float64{}
		}
		byDist[pt.Distance][pt.Phys] = pt.Result.Rate()
		if !seenD[pt.Distance] {
			seenD[pt.Distance] = true
			dists = append(dists, pt.Distance)
		}
		if !seenP[pt.Phys] {
			seenP[pt.Phys] = true
			rates = append(rates, pt.Phys)
		}
	}
	slices.Sort(dists)
	slices.Sort(rates)

	var crossings []float64
	for di := 0; di+1 < len(dists); di++ {
		d1, d2 := dists[di], dists[di+1]
		below := false // the last nonzero gap at a lower rate was negative
		for pi := 0; pi+1 < len(rates); pi++ {
			pa, pb := rates[pi], rates[pi+1]
			ga := byDist[d2][pa] - byDist[d1][pa]
			gb := byDist[d2][pb] - byDist[d1][pb]
			if ga != 0 {
				below = ga < 0
			}
			if (ga < 0 || ga == 0 && below) && gb > 0 {
				// Linear interpolation of the gap in log p.
				f := 0.5
				if gb != ga {
					f = -ga / (gb - ga)
				}
				crossings = append(crossings, math.Exp(math.Log(pa)+f*(math.Log(pb)-math.Log(pa))))
			}
		}
	}
	if len(crossings) == 0 {
		return 0
	}
	s := 0.0
	for _, c := range crossings {
		s += c
	}
	return s / float64(len(crossings))
}

// DefaultPhysRates returns a log-spaced grid of physical error rates
// bracketing the paper's thresholds (~0.008-0.009).
func DefaultPhysRates(n int) []float64 {
	if n < 2 {
		n = 2
	}
	lo, hi := math.Log(2e-3), math.Log(2e-2)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(lo + (hi-lo)*float64(i)/float64(n-1))
	}
	return out
}
