package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

const (
	// fig11Trials is the fixed shot count of every fig11-sweep cell: a
	// pass takes 1.5-2 s, so a window holds many.
	fig11Trials = 1000
	// The row's threshold estimate must land in this band around the
	// paper's 0.008. This reproduction's union-find row crosses lower: at
	// 1000 trials per cell, seeds 1-20 gave 0.0038-0.0050.
	thresholdLo, thresholdHi = 0.003, 0.012

	// The rare-deep cells are the golden_rare.json fixture's: Baseline at
	// p = 1e-3, boost 1.5, seed 4242.
	rarePhys  = 1e-3
	rareBoost = 1.5
	rareSeed  = 4242
	rareGold  = "internal/montecarlo/testdata/golden_rare.json"

	// hit_p50_ms on the sweep workloads is the median over cells of each
	// cell's median one-batch RunOn time over hitReps rounds of at least
	// hitRoundCalls calls.
	hitReps       = 9
	hitRoundCalls = 24
	// probeTrials is the per-cell shot count of the traced run's serve
	// requests.
	probeTrials = 256
)

var rareTrials = map[int]int{9: 32768, 11: 65536}

// fig11Jobs is one Fig. 11 row: Compact-Interleaved, Z basis,
// d ∈ {5, 7, 9, 11} × DefaultPhysRates(6), union-find, seeded by the
// workload seed.
func fig11Jobs(seed int64) []sched.Job {
	return sched.ThresholdJobs(extract.CompactInterleaved, []int{5, 7, 9, 11}, montecarlo.DefaultPhysRates(6),
		hardware.Default(), fig11Trials, seed, montecarlo.UF, montecarlo.SweepOptions{})
}

// rareJobs is the two golden rare-event cells. Their Monte-Carlo seed is
// pinned to the fixture's; the workload seed only orders the submission.
func rareJobs(seed int64) []sched.Job {
	var jobs []sched.Job
	for _, d := range []int{9, 11} {
		jobs = append(jobs, sched.Job{
			Cfg: montecarlo.ThresholdCellConfig(extract.Baseline, d, rarePhys, hardware.Default(), rareTrials[d], rareSeed,
				montecarlo.UF, montecarlo.SweepOptions{RareEvent: true, Boost: rareBoost}),
			Tag: sched.ThresholdCell{Scheme: extract.Baseline, Distance: d, Phys: rarePhys},
		})
	}
	rand.New(rand.NewPCG(uint64(seed), 0)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// sweepWorkload is a fixed list of cells run through the scheduler pool.
type sweepWorkload struct {
	jobs []sched.Job
	// check validates one pass's results beyond determinism.
	check func(b *bench, results []sched.CellResult) error
	// width1 requires every cell to equal a width-1 Engine.RunOn of its
	// config (the rare cells are already pinned to a RunOn-made fixture).
	width1 bool
	// probe is the same cells at fewer trials, as serve requests: the
	// traced run measures the serving layer with them.
	probe []serve.SweepRequest
}

func runFig11(b *bench) error {
	return runSweep(b, sweepWorkload{
		jobs: fig11Jobs(b.seed), check: checkFig11, width1: true,
		probe: []serve.SweepRequest{{
			Scheme: extract.CompactInterleaved.String(), Distances: []int{5, 7, 9, 11},
			Rates: montecarlo.DefaultPhysRates(6), Trials: probeTrials, Seed: b.seed, Decoder: string(montecarlo.UF),
		}},
	})
}

func runRare(b *bench) error {
	golden, err := loadGoldenRare(b.root)
	if err != nil {
		return err
	}
	w := sweepWorkload{
		jobs:  rareJobs(b.seed),
		check: func(_ *bench, res []sched.CellResult) error { return checkRare(res, golden) },
	}
	for _, d := range []int{9, 11} {
		w.probe = append(w.probe, serve.SweepRequest{
			Scheme: extract.Baseline.String(), Distances: []int{d}, Rates: []float64{rarePhys},
			Trials: 2 * probeTrials, Seed: rareSeed, Decoder: string(montecarlo.UF), RareEvent: true, Boost: rareBoost,
		})
	}
	return runSweep(b, w)
}

func runSweep(b *bench, w sweepWorkload) error {
	if b.tr != nil {
		return traceSweep(b, w)
	}
	en, err := measureSetup(b, setupReps, func() (*montecarlo.Engine, error) { return warmEngine(w.jobs, b.width) }, nil)
	if err != nil {
		return err
	}
	var passes []pass
	start := time.Now()
	k := b.calibrate()
	for b.timeWindow(start, len(passes)) {
		p, err := runPass(b, en, w.jobs, nil)
		if err != nil {
			return err
		}
		next := b.calibrate()
		p.scale, k = scale(k, next), next
		passes = append(passes, p)
	}
	b.set("max_rss_mb", maxRSSMB())

	hits, err := hitProbe(b, en, w.jobs)
	if err != nil {
		return err
	}
	if err := checkSweep(b, w, passes, nil, en); err != nil {
		return err
	}

	var walls, raw, p50s, p95s []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds()*p.scale)
		raw = append(raw, p.wall.Seconds())
		lat := make([]float64, len(p.latency))
		for i, l := range p.latency {
			lat[i] = millis(l) * p.scale
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, 0.95))
	}
	shots := 0
	for _, r := range passes[0].results {
		shots += r.Result.Trials
	}
	wall := quantile(walls, 0.5)
	b.set("wall_s", wall)
	b.set("shots_per_s", float64(shots)/wall)
	b.set("req_per_s", float64(len(w.jobs))/wall)
	b.set("p50_ms", quantile(p50s, 0.5))
	b.set("p95_ms", quantile(p95s, 0.5))
	b.set("hit_p50_ms", quantile(hits, 0.5))
	b.note("%d passes of %d cells: calibrated median %.3fs, raw median %.3fs; hit probe %d cells x %d",
		len(passes), len(w.jobs), wall, quantile(raw, 0.5), len(hits), hitReps)
	return nil
}

// extractConfig is the structural half of a Monte-Carlo config.
func extractConfig(cfg montecarlo.Config) extract.Config {
	return extract.Config{
		Scheme: cfg.Scheme, Distance: cfg.Distance, Rounds: cfg.Rounds,
		Basis: cfg.Basis, Params: cfg.Params, ChargeGapIdle: cfg.ChargeGapIdle,
	}
}

// structuralReps returns one config per distinct structure of the jobs,
// largest distance first (the longest build starts first).
func structuralReps(jobs []sched.Job) []montecarlo.Config {
	seen := map[extract.StructuralKey]bool{}
	var reps []montecarlo.Config
	for _, j := range jobs {
		k := extractConfig(j.Cfg).StructuralKey()
		if !seen[k] {
			seen[k] = true
			reps = append(reps, j.Cfg)
		}
	}
	slices.SortStableFunc(reps, func(a, c montecarlo.Config) int { return c.Distance - a.Distance })
	return reps
}

// warmEngine returns a new engine whose structure cache holds every
// structure the jobs need, built by width goroutines.
func warmEngine(jobs []sched.Job, width int) (*montecarlo.Engine, error) {
	en := montecarlo.NewEngine()
	reps := structuralReps(jobs)
	var next atomic.Int64
	errs := make([]error, width)
	var wg sync.WaitGroup
	for w := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st montecarlo.WorkerState
			for k := int(next.Add(1)) - 1; k < len(reps); k = int(next.Add(1)) - 1 {
				cfg := reps[k]
				cfg.Trials, cfg.TargetRelErr, cfg.TargetFailures = 1, 0, 0
				if _, err := en.RunOn(cfg, &st); err != nil {
					errs[w] = fmt.Errorf("warming d=%d: %w", cfg.Distance, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return en, nil
}

// pass is one run of a sweep workload's cells through the scheduler.
type pass struct {
	wall time.Duration
	// latency holds each cell's completion time, measured from the start of
	// the pass: when a caller streaming the row sees that cell.
	latency []time.Duration
	results []sched.CellResult
	scale   float64 // the pass's calibration scale
}

func runPass(b *bench, en *montecarlo.Engine, jobs []sched.Job, tr *tracer) (pass, error) {
	p := pass{latency: make([]time.Duration, 0, len(jobs))}
	var start time.Time
	s := sched.New(en, sched.Options{
		Jobs:     b.width,
		OnResult: func(sched.CellResult) { p.latency = append(p.latency, time.Since(start)) },
	})
	span := tr.begin("sched.run", "pass", 0)
	start = time.Now()
	res, err := s.Run(jobs)
	p.wall = time.Since(start)
	tr.end(span)
	p.results = res
	b.attempted += len(jobs)
	for _, r := range res {
		if r.Err != nil {
			b.failed++
		}
	}
	if err != nil {
		return p, checkFail("sweep pass: %v", err)
	}
	return p, nil
}

// hitProbe times a one-batch RunOn of every cell on the warmed engine: the
// structure-cache-hit path (noise probabilities, reweight, graph weights,
// sampler and decoder rebind) plus one 64-shot batch. It returns each
// cell's median calibrated time, in ms.
func hitProbe(b *bench, en *montecarlo.Engine, jobs []sched.Job) ([]float64, error) {
	var st montecarlo.WorkerState
	times := make([][]float64, len(jobs))
	// A round makes at least hitRoundCalls calls, so that it outlasts the
	// stalls that hit single calls of a few milliseconds.
	passes := (hitRoundCalls + len(jobs) - 1) / len(jobs)
	k := b.calibrate()
	for range hitReps {
		raw := make([][]float64, len(jobs))
		for range passes {
			for i, j := range jobs {
				cfg := j.Cfg
				cfg.Trials = dem.BatchShots
				start := time.Now()
				_, err := en.RunOn(cfg, &st)
				raw[i] = append(raw[i], millis(time.Since(start)))
				b.attempted++
				if err != nil {
					b.failed++
					return nil, checkFail("hit probe d=%d: %v", cfg.Distance, err)
				}
			}
		}
		next := b.calibrate()
		for i, ms := range raw {
			for _, v := range ms {
				times[i] = append(times[i], v*scale(k, next))
			}
		}
		k = next
	}
	out := make([]float64, len(jobs))
	for i, t := range times {
		out[i] = quantile(t, 0.5)
	}
	return out, nil
}

// checkSweep validates a sweep workload's passes: every pass identical,
// every cell equal to a width-1 RunOn of its config when required (width1
// holds those results when the caller already has them), and the
// workload's own check.
func checkSweep(b *bench, w sweepWorkload, passes []pass, width1 []montecarlo.Result, en *montecarlo.Engine) error {
	first := passes[0].results
	for i, p := range passes[1:] {
		for k := range first {
			if !sameResult(first[k].Result, p.results[k].Result) {
				return checkFail("pass %d cell %d differs from pass 0", i+1, k)
			}
		}
	}
	if w.width1 {
		if width1 == nil {
			var st montecarlo.WorkerState
			for _, j := range w.jobs {
				r, err := en.RunOn(j.Cfg, &st)
				if err != nil {
					return checkFail("width-1 reference d=%d: %v", j.Cfg.Distance, err)
				}
				width1 = append(width1, r)
			}
		}
		for k, r := range first {
			if !sameResult(r.Result, width1[k]) {
				return checkFail("cell %d (d=%d): pool %d/%d failures/trials, width-1 RunOn %d/%d", k, r.Job.Cfg.Distance,
					r.Result.Failures, r.Result.Trials, width1[k].Failures, width1[k].Trials)
			}
		}
	}
	return w.check(b, first)
}

func sameResult(a, c montecarlo.Result) bool {
	return a.Trials == c.Trials && a.Failures == c.Failures && a.Weighted == c.Weighted
}

func checkFig11(b *bench, res []sched.CellResult) error {
	pts := make([]montecarlo.SweepPoint, len(res))
	for i, r := range res {
		if r.Result.Trials != fig11Trials {
			return checkFail("cell %d ran %d trials, want %d", i, r.Result.Trials, fig11Trials)
		}
		tag := r.Job.Tag.(sched.ThresholdCell)
		pts[i] = montecarlo.SweepPoint{Distance: tag.Distance, Phys: tag.Phys, Result: r.Result}
	}
	th := montecarlo.EstimateThreshold(pts)
	b.note("threshold estimate %.5f (band %.3f-%.3f)", th, thresholdLo, thresholdHi)
	if th < thresholdLo || th > thresholdHi {
		return checkFail("threshold estimate %.5f outside [%g, %g]", th, thresholdLo, thresholdHi)
	}
	return nil
}

// goldenRare is one cell of the committed rare-event fixture.
type goldenRare struct {
	Distance int                       `json:"distance"`
	Trials   int                       `json:"trials"`
	Failures int                       `json:"failures"`
	Weighted montecarlo.WeightedResult `json:"weighted"`
}

func loadGoldenRare(root string) (map[int]goldenRare, error) {
	buf, err := os.ReadFile(filepath.Join(root, rareGold))
	if err != nil {
		return nil, err
	}
	var cells []goldenRare
	if err := json.Unmarshal(buf, &cells); err != nil {
		return nil, fmt.Errorf("%s: %w", rareGold, err)
	}
	out := map[int]goldenRare{}
	for _, c := range cells {
		out[c.Distance] = c
	}
	return out, nil
}

func checkRare(res []sched.CellResult, golden map[int]goldenRare) error {
	if len(res) != len(golden) {
		return checkFail("%d rare cells, fixture has %d", len(res), len(golden))
	}
	for _, r := range res {
		d := r.Job.Cfg.Distance
		g, ok := golden[d]
		if !ok {
			return checkFail("no fixture cell for d=%d", d)
		}
		if r.Result.Trials != g.Trials || r.Result.Failures != g.Failures || r.Result.Weighted != g.Weighted {
			return checkFail("rare d=%d: got %d/%d %+v, fixture %d/%d %+v", d, r.Result.Failures, r.Result.Trials,
				r.Result.Weighted, g.Failures, g.Trials, g.Weighted)
		}
	}
	return nil
}
