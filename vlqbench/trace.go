package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/serve"
)

// traceSweep is the traced run of a sweep workload: structure builds timed
// layer by layer, one untraced and one traced pass through the scheduler
// (their difference is the tracing overhead), every cell replayed next to
// its RunOn, and the serving layer measured on the workload's own cells.
func traceSweep(b *bench, w sweepWorkload) error {
	en, err := warmEngine(w.jobs, b.width)
	if err != nil {
		return err
	}
	r := newReplayer(b.tr)
	for _, cfg := range structuralReps(w.jobs) {
		if err := r.build(cfg); err != nil {
			return err
		}
	}
	c0 := en.CacheStats()
	k0 := b.calibrate()
	p0, err := runPass(b, en, w.jobs, nil)
	if err != nil {
		return err
	}
	k1 := b.calibrate()
	p1, err := runPass(b, en, w.jobs, b.tr)
	if err != nil {
		return err
	}
	k2 := b.calibrate()
	c1 := en.CacheStats()

	cfgs := make([]montecarlo.Config, len(w.jobs))
	ops := make([]string, len(w.jobs))
	for i, j := range w.jobs {
		cfgs[i], ops[i] = j.Cfg, fmt.Sprintf("cell-%d-d%d", i, j.Cfg.Distance)
	}
	width1, err := r.reconcile(b, en, cfgs, ops)
	if err != nil {
		return err
	}
	if err := checkSweep(b, w, []pass{p0, p1}, width1, en); err != nil {
		return err
	}
	b.set("trace.overhead_pct", 100*(p1.wall.Seconds()*scale(k1, k2)/(p0.wall.Seconds()*scale(k0, k1))-1))
	setCacheHit(b, c0, c1)
	b.set("sched.makespan_s", p0.wall.Seconds())
	b.set("sched.pool_busy_frac", r.L.runOnTotal.Seconds()/(float64(b.width)*p0.wall.Seconds()))
	r.setLayers(b)
	return serveProbe(b, en, w.probe)
}

func setCacheHit(b *bench, c0, c1 montecarlo.CacheStats) {
	hits := c1.Hits - c0.Hits
	b.set("montecarlo.cache_hit_frac", ratio(float64(hits), float64(hits+c1.Builds-c0.Builds)))
}

// probeReps is the number of request/engine pairs per request shape.
const probeReps = 5

// overheadProbe measures the serving overhead of each request shape: pairs
// of a fresh submission (the request with its seed shifted, so no
// cell is in the ledger) and a scheduler run of the same cells on the
// engine, alternating which goes first. Per shape it returns the median of
// latency minus engine time in ms and the fastest engine time. In the pair
// with the lowest engine/latency ratio, or fastest against fastest if that
// ratio is lower (as in reconcile), the engine time may exceed the latency
// by at most reconcileFrac plus requestSlack. recs holds the answered
// cells.
func overheadProbe(b *bench, s *server, reqs []serve.SweepRequest) (over []float64, engs []time.Duration, recs []serve.CellRecord, err error) {
	en := s.srv.Engine()
	for i, req := range reqs {
		var bestLat, bestEng, minEng, minLat time.Duration
		var diffs []float64
		bestRatio := math.Inf(1)
		for rep := range probeReps {
			q := req
			q.Seed += int64(rep + 1)
			body, _ := json.Marshal(q) // a SweepRequest always marshals
			var lat, eng time.Duration
			var cells []serve.CellRecord
			post := func() error {
				start := time.Now()
				reply, l, err := s.postSweep(body)
				b.tr.add("serve.request", fmt.Sprintf("probe-%d-%d", i, rep), 0, start, start.Add(l))
				b.attempted++
				jobs, _ := serve.BuildCells(q) // q came from a valid request
				if err != nil || reply.failed(len(jobs)) {
					b.failed++
					return checkFail("probe request %d: status %d, state %q, %v", i, reply.status, reply.state, err)
				}
				for _, c := range reply.cells {
					if c.Source == "ledger" {
						return checkFail("probe request %d: shifted-seed cell served from the ledger", i)
					}
				}
				lat, cells = l, reply.cells
				return nil
			}
			engine := func() (err error) {
				start := time.Now()
				eng, err = engineTime(en, q, b.width)
				b.tr.add("sched.run", fmt.Sprintf("probe-%d-%d", i, rep), 0, start, start.Add(eng))
				return err
			}
			first, second := post, engine
			if rep%2 == 1 {
				first, second = engine, post
			}
			if err := first(); err != nil {
				return nil, nil, nil, err
			}
			if err := second(); err != nil {
				return nil, nil, nil, err
			}
			if q := float64(eng) / float64(lat); q < bestRatio {
				bestLat, bestEng, bestRatio = lat, eng, q
			}
			if rep == 0 || eng < minEng {
				minEng = eng
			}
			if rep == 0 || lat < minLat {
				minLat = lat
			}
			diffs = append(diffs, millis(lat-eng))
			recs = append(recs, cells...)
		}
		if float64(minEng)/float64(minLat) < bestRatio {
			bestLat, bestEng = minLat, minEng
		}
		if bestEng > time.Duration(float64(bestLat)*(1+reconcileFrac))+requestSlack {
			return nil, nil, nil, checkFail("probe request %d: engine replay %v exceeds its latency %v", i, bestEng, bestLat)
		}
		over, engs = append(over, quantile(diffs, 0.5)), append(engs, minEng)
	}
	return over, engs, recs, nil
}

// serveProbe measures the serving layer on a sweep workload's cells: the
// overhead probe, a repeat of each request (answered from the ledger with
// the same bytes), operator scrapes, and the ledger timed directly.
func serveProbe(b *bench, en *montecarlo.Engine, reqs []serve.SweepRequest) error {
	const scrapes = 5
	s, err := startServer(en, filepath.Join(b.tmp, "probe-ledger.jsonl"), b.width)
	if err != nil {
		return err
	}
	defer s.close()
	s0, err := s.stats()
	if err != nil {
		return err
	}
	over, _, recs, err := overheadProbe(b, s, reqs)
	if err != nil {
		return err
	}
	cells := len(recs)
	for i, req := range reqs {
		// Every shifted seed has run; the last pair's submission repeats.
		q := req
		q.Seed += probeReps
		body, _ := json.Marshal(q)
		first, _, err := s.postSweep(body)
		if err != nil {
			return err
		}
		second, _, err := s.postSweep(body)
		b.attempted += 2
		if err != nil || second.failed(len(first.cells)) {
			b.failed++
			return checkFail("probe request %d repeat: status %d, state %q, %v", i, second.status, second.state, err)
		}
		for k, c := range second.cells {
			if first.cells[k].Source != "ledger" || c.Source != "ledger" || !bytes.Equal(canonical(c), canonical(first.cells[k])) {
				return checkFail("probe request %d repeat cell %d: source %q or bytes differ", i, k, c.Source)
			}
		}
		cells += 2 * len(second.cells)
	}
	got := map[string][]float64{}
	for range scrapes {
		for _, path := range []string{"/metrics", "/v1/stats"} {
			start := time.Now()
			_, lat, err := s.get(path)
			if err != nil {
				return err
			}
			b.tr.add("serve.scrape", path, 0, start, start.Add(lat))
			got[path] = append(got[path], millis(lat))
		}
	}
	b.attempted += 2 * scrapes
	s1, err := s.stats()
	if err != nil {
		return err
	}
	statsDelta(b, s0, s1, cells)
	b.set("serve.overhead_ms", quantile(over, 0.5))
	b.set("serve.metrics_scrape_ms", quantile(got["/metrics"], 0.5))
	b.set("serve.stats_ms", quantile(got["/v1/stats"], 0.5))
	return ledgerProbe(b, filepath.Join(b.tmp, "probe-put.jsonl"), recs)
}

// traceMix completes serve-mix's traced run after its load window: the
// serving layer's numbers from the window, the overhead probe on the shapes
// of the first fresh requests, and their cells replayed next to RunOn.
func traceMix(b *bench, s *server, m *mixLoad, rounds []mixRoundResult, s0, s1 serve.StatsResponse, c0, c1 montecarlo.CacheStats, cells int) error {
	en := s.srv.Engine()
	r := newReplayer(b.tr)
	for _, cfg := range structuralReps(mixJobs(b.seed)) {
		if err := r.build(cfg); err != nil {
			return err
		}
	}
	setCacheHit(b, c0, c1)
	statsDelta(b, s0, s1, cells)
	b.set("serve.metrics_scrape_ms", quantile(m.scrapes["/metrics"], 0.5))
	b.set("serve.stats_ms", quantile(m.scrapes["/v1/stats"], 0.5))

	// Tracing overhead: the calibrated fresh p50 of traced rounds against
	// untraced ones.
	var traced, untraced []float64
	for _, r := range rounds {
		var fresh []float64
		for _, rec := range r.recs {
			if rec.class != "repeat" {
				fresh = append(fresh, millis(rec.latency)*r.scale)
			}
		}
		if r.traced {
			traced = append(traced, quantile(fresh, 0.5))
		} else {
			untraced = append(untraced, quantile(fresh, 0.5))
		}
	}
	kept := slices.Clone(m.kept)
	slices.SortFunc(kept, func(a, c keptFresh) int { return a.idx - c.idx })
	var reqs []serve.SweepRequest
	var cfgs []montecarlo.Config
	var ops []string
	var cellRecs []serve.CellRecord
	for i, k := range kept {
		cellRecs = append(cellRecs, k.cells...)
		if i >= mixTraceRequests {
			continue
		}
		reqs = append(reqs, k.req)
		jobs, err := serve.BuildCells(k.req)
		if err != nil {
			return err
		}
		for c, j := range jobs {
			if !slices.Contains(cfgs, j.Cfg) {
				cfgs = append(cfgs, j.Cfg)
				ops = append(ops, fmt.Sprintf("req-%d-cell-%d", k.idx, c))
			}
		}
	}
	over, engs, _, err := overheadProbe(b, s, reqs)
	if err != nil {
		return err
	}
	if _, err := r.reconcile(b, en, cfgs, ops); err != nil {
		return err
	}
	var makespan time.Duration
	var makespans []float64
	for _, e := range engs {
		makespan += e
		makespans = append(makespans, e.Seconds())
	}
	b.set("trace.overhead_pct", 100*(quantile(traced, 0.5)/quantile(untraced, 0.5)-1))
	b.set("serve.overhead_ms", quantile(over, 0.5))
	b.set("sched.makespan_s", quantile(makespans, 0.5))
	b.set("sched.pool_busy_frac", r.L.runOnTotal.Seconds()/(float64(b.width)*makespan.Seconds()))
	r.setLayers(b)
	return ledgerProbe(b, filepath.Join(b.tmp, "probe-put.jsonl"), cellRecs)
}
