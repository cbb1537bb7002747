package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"time"

	"repro/internal/decoder"
	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/montecarlo"
)

// The replayer re-executes Monte-Carlo cells from outside the engine,
// through the public calls of internal/extract, internal/dem and
// internal/decoder, in the order Engine.RunOn makes them: noise
// probabilities, reweight, graph weights, then per 64-shot batch sample +
// event mask + extract and pipeline decode. Each call is timed and recorded
// as a span. A replayed cell must reproduce its RunOn result exactly, which
// is what makes its stage times an account of the engine's.

const (
	// crossBatches is how many batches of each cell the cross probes draw
	// with the sampler and decoder the cell itself does not use.
	crossBatches = 2
	// Reconciliation, over reconcileReps pairs of calls (see reconcile): the
	// replayed stages may exceed the cell's measured RunOn time by at most
	// reconcileFrac of it plus reconcileSlack, and a request's engine time
	// may exceed its latency by reconcileFrac plus requestSlack (about two
	// goroutine wake-ups on a virtual machine).
	reconcileReps  = 5
	reconcileFrac  = 0.05
	reconcileSlack = 20 * time.Microsecond
	requestSlack   = 250 * time.Microsecond
)

type built struct {
	exp *extract.Experiment
	st  *dem.Structure
	gs  *dem.GraphStructure
}

// layers accumulates the per-layer measurements of a traced run.
type layers struct {
	buildExtract, buildStructure, buildGraph time.Duration

	cells                        int
	noise, reweight, graphWeight time.Duration
	sample, wsample              time.Duration
	sampleShots, wsampleShots    int
	shots, zero, events          int
	pipeShots, dedupHits         int64
	uf, blossom                  time.Duration
	ufShots, blossomShots        int
	ufRounds, blossomRounds      int64
	runOn                        []float64 // fastest RunOn per cell, ms
	runOnTotal                   time.Duration
	// Σ stages of the kept replays and Σ RunOn of the calls they were
	// compared with.
	stagesTotal, comparedRunTotal time.Duration
}

type replayer struct {
	tr      *tracer
	L       layers
	structs map[extract.StructuralKey]*built

	probs, wprobs []float64
	model, prop   *dem.Model
	bs            *dem.BatchSampler
	ws            *dem.WeightedBatchSampler
	uf            *decoder.UnionFind
	bl            *decoder.Blossom
	pipe, xpipe   *decoder.Pipeline
	shots         dem.ShotSet
	batch         decoder.Batch
	xprobs        []float64
	xprop         *dem.Model
	xws           *dem.WeightedBatchSampler
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, structs: map[extract.StructuralKey]*built{}}
}

// build constructs one cell's structure the way the engine's cache does,
// timing extract.Build, dem.BuildStructure and Structure.Graph.
func (r *replayer) build(cfg montecarlo.Config) error {
	ec := extractConfig(cfg)
	key := ec.StructuralKey()
	if r.structs[key] != nil {
		return nil
	}
	op := fmt.Sprintf("build-d%d", cfg.Distance)
	t0 := time.Now()
	exp, err := extract.Build(ec)
	t1 := time.Now()
	r.tr.add("extract.build", op, 0, t0, t1)
	if err != nil {
		return err
	}
	st, err := dem.BuildStructure(exp)
	t2 := time.Now()
	r.tr.add("dem.build_structure", op, 0, t1, t2)
	if err != nil {
		return err
	}
	gs, err := st.Graph()
	t3 := time.Now()
	r.tr.add("dem.graph_topology", op, 0, t2, t3)
	if err != nil {
		return err
	}
	r.L.buildExtract += t1.Sub(t0)
	r.L.buildStructure += t2.Sub(t1)
	r.L.buildGraph += t3.Sub(t2)
	r.structs[key] = &built{exp: exp, st: st, gs: gs}
	return nil
}

// cellReplay is one replayed execution of a cell.
type cellReplay struct {
	trials, failures int
	weighted         montecarlo.WeightedResult

	noise, reweight, graphWeight, sample, decode time.Duration
	zero, events                                 int
	pipeShots, dedupHits, rounds                 int64
}

func (c cellReplay) stages() time.Duration {
	return c.noise + c.reweight + c.graphWeight + c.sample + c.decode
}

// prepare mirrors the engine's prepare step for one cell and returns the
// decoding graph; the models stay on r for the sampling loop.
func (r *replayer) prepare(cfg montecarlo.Config, op string, parent int, c *cellReplay) (*dem.Graph, error) {
	b := r.structs[extractConfig(cfg).StructuralKey()]
	if b == nil {
		return nil, fmt.Errorf("replay: no structure built for d=%d", cfg.Distance)
	}
	t0 := time.Now()
	probs, err := b.exp.NoiseProbs(cfg.Params, r.probs[:0])
	t1 := time.Now()
	r.tr.add("extract.noise_probs", op, parent, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("replay: cell d=%d needs an uncached model: %w", cfg.Distance, err)
	}
	r.probs = probs
	r.model, err = b.st.ReweightInto(probs, r.model)
	if err == nil && cfg.RareEvent {
		r.wprobs = boostProbs(cfg.Boost, probs, r.wprobs[:0])
		r.prop, err = b.st.ReweightInto(r.wprobs, r.prop)
		if err == nil {
			alignProposal(r.model, r.prop)
		}
	}
	t2 := time.Now()
	r.tr.add("dem.reweight", op, parent, t1, t2)
	if err != nil {
		return nil, err
	}
	g, err := b.gs.Weight(r.model)
	t3 := time.Now()
	r.tr.add("dem.graph_weight", op, parent, t2, t3)
	c.noise, c.reweight, c.graphWeight = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return g, err
}

// decoderFor mirrors the engine's per-worker decoder reuse.
func (r *replayer) decoderFor(kind montecarlo.DecoderKind, g *dem.Graph) (decoder.BatchDecoder, error) {
	switch kind {
	case montecarlo.UF, "":
		if r.uf == nil || !r.uf.Rebind(g) {
			r.uf = decoder.NewUnionFind(g)
		}
		return r.uf, nil
	case montecarlo.Blossom:
		if r.bl == nil || !r.bl.Rebind(g) {
			r.bl = decoder.NewBlossom(g)
		}
		return r.bl, nil
	}
	return nil, fmt.Errorf("replay: decoder %q is not replayed", kind)
}

func rounds(kind montecarlo.DecoderKind, s decoder.DecoderStats) int64 {
	if kind == montecarlo.Blossom {
		return s.BlossomRounds
	}
	return s.UFGrowthRounds
}

// replayCell re-executes one cell as worker 0 of Engine.RunOn would.
func (r *replayer) replayCell(cfg montecarlo.Config, op string, parent int) (cellReplay, error) {
	var c cellReplay
	if cfg.DisablePipeline || cfg.TargetFailures > 0 || cfg.TargetRelErr > 0 {
		return c, fmt.Errorf("replay: cell d=%d uses an early-stop or pipeline switch the replay does not mirror", cfg.Distance)
	}
	span := r.tr.begin("replay.cell", op, parent)
	defer r.tr.end(span)
	g, err := r.prepare(cfg, op, span, &c)
	if err != nil {
		return c, err
	}
	inner, err := r.decoderFor(cfg.Decoder, g)
	if err != nil {
		return c, err
	}
	if r.pipe == nil {
		r.pipe = decoder.NewPipeline(inner)
	} else {
		r.pipe.Rebind(inner)
	}
	var bs *dem.BatchSampler
	if cfg.RareEvent {
		if r.ws == nil {
			r.ws, err = dem.NewWeightedBatchSampler(r.model, r.prop)
		} else {
			err = r.ws.Reset(r.model, r.prop)
		}
		if err != nil {
			return c, err
		}
		bs = &r.ws.BatchSampler
	} else {
		if r.bs == nil {
			r.bs = r.model.NewBatchSampler()
		} else {
			r.bs.Reset(r.model)
		}
		bs = r.bs
	}
	sampleName := "dem.sample"
	if cfg.RareEvent {
		sampleName = "dem.weighted_sample"
	}
	decodeName := "decoder." + string(cfg.Decoder)

	rng := rand.New(rand.NewChaCha8(workerSeed(cfg.Seed, 0)))
	stats0, pipe0 := r.pipe.DecoderStats(), r.pipe.Stats()
	var out [dem.BatchShots]bool
	for c.trials < cfg.Trials {
		n := min(dem.BatchShots, cfg.Trials-c.trials)
		t0 := time.Now()
		bs.SampleN(rng, n)
		mask, obsW := bs.EventMask(), bs.ObsWord()
		bs.Extract(mask, &r.shots)
		t1 := time.Now()
		r.batch.Reset()
		for i := range r.shots.Len() {
			r.batch.Add(r.shots.Shot(i))
		}
		err := r.pipe.DecodeBatch(&r.batch, out[:r.shots.Len()])
		t2 := time.Now()
		r.tr.add(sampleName, op, span, t0, t1)
		r.tr.add(decodeName, op, span, t1, t2)
		if err != nil {
			return c, err
		}
		c.sample += t1.Sub(t0)
		c.decode += t2.Sub(t1)

		full := ^uint64(0)
		if n < dem.BatchShots {
			full = 1<<uint(n) - 1
		}
		zero := full &^ mask
		failw := obsW & zero
		for i := range r.shots.Len() {
			s := r.shots.Index(i)
			c.events += len(r.shots.Shot(i))
			if out[i] != (obsW&(1<<uint(s)) != 0) {
				failw |= 1 << uint(s)
			}
		}
		if cfg.RareEvent {
			var delta montecarlo.WeightedResult
			for s := range n {
				addShot(&delta, r.ws.Weight(s), failw&(1<<uint(s)) != 0)
			}
			c.weighted.Add(delta)
		}
		c.trials += n
		c.failures += bits.OnesCount64(failw)
		c.zero += bits.OnesCount64(zero)
	}
	st := r.pipe.DecoderStats().Sub(stats0)
	c.rounds = rounds(cfg.Decoder, st)
	ps := r.pipe.Stats()
	c.pipeShots, c.dedupHits = ps.Shots-pipe0.Shots, ps.DedupHits-pipe0.DedupHits
	return c, nil
}

// add folds a chosen replay of one cell into the layer totals: comparedRun
// is the RunOn time it was compared with, minRun the cell's fastest RunOn.
func (r *replayer) add(cfg montecarlo.Config, c cellReplay, comparedRun, minRun time.Duration) {
	L := &r.L
	L.cells++
	L.noise += c.noise
	L.reweight += c.reweight
	L.graphWeight += c.graphWeight
	if cfg.RareEvent {
		L.wsample += c.sample
		L.wsampleShots += c.trials
	} else {
		L.sample += c.sample
		L.sampleShots += c.trials
	}
	L.shots += c.trials
	L.zero += c.zero
	L.events += c.events
	L.pipeShots += c.pipeShots
	L.dedupHits += c.dedupHits
	r.addDecode(cfg.Decoder, c.decode, c.trials, c.rounds)
	L.runOn = append(L.runOn, millis(minRun))
	L.runOnTotal += minRun
	L.stagesTotal += c.stages()
	L.comparedRunTotal += comparedRun
}

func (r *replayer) addDecode(kind montecarlo.DecoderKind, d time.Duration, shots int, rounds int64) {
	if kind == montecarlo.Blossom {
		r.L.blossom += d
		r.L.blossomShots += shots
		r.L.blossomRounds += rounds
	} else {
		r.L.uf += d
		r.L.ufShots += shots
		r.L.ufRounds += rounds
	}
}

// reconcile measures every cell's Engine.RunOn on en next to its replay,
// checks that the replay reproduces the result and that its stages fit in
// the measured time, and records the layer numbers of the fastest replay.
// It returns each cell's RunOn result.
func (r *replayer) reconcile(b *bench, en *montecarlo.Engine, cfgs []montecarlo.Config, ops []string) ([]montecarlo.Result, error) {
	var st montecarlo.WorkerState
	out := make([]montecarlo.Result, len(cfgs))
	for i, cfg := range cfgs {
		batches := (cfg.Trials + dem.BatchShots - 1) / dem.BatchShots
		r.tr.reserve(reconcileReps*(2*batches+6) + 3*crossBatches + 2)
		if err := r.build(cfg); err != nil {
			return nil, err
		}
		cell := r.tr.begin("cell", ops[i], 0)
		// Each repetition pairs one RunOn with one replay, alternating which
		// goes first. The replay is held against RunOn in the pair with the
		// lowest ratio (adjacent calls see the same drift of a shared
		// machine's speed) or fastest against fastest (which drops the
		// stalls that hit single calls of a few milliseconds), whichever
		// ratio is lower.
		var (
			fastest, paired cellReplay
			pairRun, minRun time.Duration
			pairRatio       = math.Inf(1)
		)
		for rep := range reconcileReps {
			var (
				res   montecarlo.Result
				runOn time.Duration
				c     cellReplay
				err   error
			)
			engine := func() error {
				t0 := time.Now()
				res, err = en.RunOn(cfg, &st)
				t1 := time.Now()
				r.tr.add("montecarlo.run_on", ops[i], cell, t0, t1)
				runOn = t1.Sub(t0)
				b.attempted++
				if err != nil {
					b.failed++
					return checkFail("RunOn %s: %v", ops[i], err)
				}
				return nil
			}
			replay := func() error {
				c, err = r.replayCell(cfg, ops[i], cell)
				return err
			}
			first, second := engine, replay
			if rep%2 == 1 {
				first, second = replay, engine
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if c.trials != res.Trials || c.failures != res.Failures || c.weighted != res.Weighted {
				return nil, checkFail("replay of %s gives %d/%d failures/trials, RunOn %d/%d", ops[i],
					c.failures, c.trials, res.Failures, res.Trials)
			}
			out[i] = res
			if rep == 0 || runOn < minRun {
				minRun = runOn
			}
			if rep == 0 || c.stages() < fastest.stages() {
				fastest = c
			}
			if q := float64(c.stages()) / float64(runOn); q < pairRatio {
				paired, pairRun, pairRatio = c, runOn, q
			}
		}
		r.tr.end(cell)
		best, bestRun := paired, pairRun
		if float64(fastest.stages())/float64(minRun) < pairRatio {
			best, bestRun = fastest, minRun
		}
		if limit := time.Duration(float64(bestRun)*(1+reconcileFrac)) + reconcileSlack; best.stages() > limit {
			return nil, checkFail("replayed stages of %s take %v, more than its RunOn time %v allows", ops[i], best.stages(), bestRun)
		}
		r.add(cfg, best, bestRun, minRun)
		if err := r.cross(cfg, ops[i], cell); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cross times, on crossBatches batches of a replayed cell, the sampler and
// decoder the cell itself does not use: a plain draw of the target model
// decoded by the other matcher, and (for a plain cell) a weighted draw
// against the rare-deep proposal boost.
func (r *replayer) cross(cfg montecarlo.Config, op string, parent int) error {
	other := montecarlo.Blossom
	if cfg.Decoder == montecarlo.Blossom {
		other = montecarlo.UF
	}
	g, err := r.structs[extractConfig(cfg).StructuralKey()].gs.Weight(r.model)
	if err != nil {
		return err
	}
	var inner decoder.BatchDecoder
	switch other {
	case montecarlo.Blossom:
		inner = decoder.NewBlossom(g)
	default:
		inner = decoder.NewUnionFind(g)
	}
	if r.xpipe == nil {
		r.xpipe = decoder.NewPipeline(inner)
	} else {
		r.xpipe.Rebind(inner)
	}
	if r.bs == nil {
		r.bs = r.model.NewBatchSampler()
	} else {
		r.bs.Reset(r.model)
	}
	rng := rand.New(rand.NewChaCha8(workerSeed(cfg.Seed, 1)))
	stats0 := r.xpipe.DecoderStats()
	var out [dem.BatchShots]bool
	var dec time.Duration
	for range crossBatches {
		t0 := time.Now()
		r.bs.Sample(rng)
		r.bs.Extract(r.bs.EventMask(), &r.shots)
		t1 := time.Now()
		r.batch.Reset()
		for i := range r.shots.Len() {
			r.batch.Add(r.shots.Shot(i))
		}
		err := r.xpipe.DecodeBatch(&r.batch, out[:r.shots.Len()])
		t2 := time.Now()
		r.tr.add("cross.dem.sample", op, parent, t0, t1)
		r.tr.add("cross.decoder."+string(other), op, parent, t1, t2)
		if err != nil {
			return err
		}
		if cfg.RareEvent {
			r.L.sample += t1.Sub(t0)
			r.L.sampleShots += dem.BatchShots
		}
		dec += t2.Sub(t1)
	}
	r.addDecode(other, dec, crossBatches*dem.BatchShots, rounds(other, r.xpipe.DecoderStats().Sub(stats0)))
	if cfg.RareEvent {
		return nil
	}

	b := r.structs[extractConfig(cfg).StructuralKey()]
	r.xprobs = boostProbs(rareBoost, r.probs, r.xprobs[:0])
	if r.xprop, err = b.st.ReweightInto(r.xprobs, r.xprop); err != nil {
		return err
	}
	alignProposal(r.model, r.xprop)
	if r.xws == nil {
		r.xws, err = dem.NewWeightedBatchSampler(r.model, r.xprop)
	} else {
		err = r.xws.Reset(r.model, r.xprop)
	}
	if err != nil {
		return err
	}
	for range crossBatches {
		t0 := time.Now()
		r.xws.Sample(rng)
		r.xws.Extract(r.xws.EventMask(), &r.shots)
		t1 := time.Now()
		r.tr.add("cross.dem.weighted_sample", op, parent, t0, t1)
		r.L.wsample += t1.Sub(t0)
		r.L.wsampleShots += dem.BatchShots
	}
	return nil
}

// setLayers reports the replay's per-layer metrics.
func (r *replayer) setLayers(b *bench) {
	L := &r.L
	perCell := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(L.cells) }
	perShot := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	b.set("extract.build_ms", millis(L.buildExtract))
	b.set("dem.build_structure_ms", millis(L.buildStructure))
	b.set("dem.graph_topology_ms", millis(L.buildGraph))
	b.set("extract.noise_probs_us", perCell(L.noise))
	b.set("dem.reweight_us", perCell(L.reweight))
	b.set("dem.graph_weight_us", perCell(L.graphWeight))
	b.set("dem.sample_ns_per_shot", perShot(L.sample, L.sampleShots))
	b.set("dem.weighted_sample_ns_per_shot", perShot(L.wsample, L.wsampleShots))
	b.set("dem.events_per_shot", ratio(float64(L.events), float64(L.shots)))
	b.set("dem.zero_defect_frac", ratio(float64(L.zero), float64(L.shots)))
	b.set("decoder.uf_ns_per_shot", perShot(L.uf, L.ufShots))
	b.set("decoder.blossom_ns_per_shot", perShot(L.blossom, L.blossomShots))
	b.set("decoder.uf_growth_rounds_per_shot", ratio(float64(L.ufRounds), float64(L.ufShots)))
	b.set("decoder.blossom_rounds_per_shot", ratio(float64(L.blossomRounds), float64(L.blossomShots)))
	b.set("decoder.dedup_hit_frac", ratio(float64(L.dedupHits), float64(L.pipeShots)))
	b.set("montecarlo.cell_ms_p50", quantile(L.runOn, 0.5))
	b.set("montecarlo.cell_ms_max", quantile(L.runOn, 1))
	b.set("montecarlo.self_frac", 1-ratio(float64(L.stagesTotal), float64(L.comparedRunTotal)))
	b.note("replayed %d cells: stages %v of compared RunOn %v", L.cells, L.stagesTotal, L.comparedRunTotal)
}

// workerSeed is the engine's per-worker ChaCha8 seed derivation: SHA-256
// of the cell seed and the worker (or shard) index, little-endian.
func workerSeed(seed int64, w int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(w))
	return sha256.Sum256(buf[:])
}

// boostProbs is the engine's rare-event proposal: probabilities in (0, 1/2)
// scale by boost, clamped at 1/2.
func boostProbs(boost float64, probs, dst []float64) []float64 {
	for _, p := range probs {
		q := p
		if p > 0 && p < 0.5 {
			q = math.Min(boost*p, 0.5)
		}
		dst = append(dst, q)
	}
	return dst
}

// alignProposal pins proposal mechanisms whose zero-support or always-fire
// class differs from the target's back to the target probability, as the
// engine does before weighting.
func alignProposal(target, prop *dem.Model) {
	for i := range target.Mechs {
		p, q := target.Mechs[i].P, prop.Mechs[i].P
		if (p <= 0) != (q <= 0) || (p >= 1) != (q >= 1) {
			prop.Mechs[i].P = p
		}
	}
}

// addShot folds one shot into a weighted tally in the engine's order.
func addShot(wr *montecarlo.WeightedResult, w float64, fail bool) {
	wr.Shots++
	wr.SumW += w
	wr.SumW2 += w * w
	if fail {
		wr.SumWFail += w
		wr.SumW2Fail += w * w
	}
	if w > wr.MaxW {
		wr.MaxW = w
	}
}
