package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

const (
	// mixTrials is the shot count of every serve-mix cell.
	mixTrials = 1000
	// Every block of mixBlock consecutive requests holds the same classes in
	// a seeded order: 13 fresh and 7 repeats of earlier fresh bodies (65% /
	// 35%). Of the fresh, 10 are cheap d=3 sweeps (6 threshold, 1 with its
	// two cells coinciding, 3 cavity-T1 sensitivity) and 3 are d=5 threshold
	// sweeps (1 with coinciding cells), so the fresh p50 falls inside the
	// d=3 class and the p95 inside the d=5 class.
	mixBlock = 20
	// mixScrapeEvery: client 0 scrapes /metrics and /v1/stats after every
	// this many of its own requests.
	mixScrapeEvery = 10
	// mixSetupReps is serve-mix's set-up repetition count; its set-up is
	// short, so it takes more samples than the sweep workloads.
	mixSetupReps = 5
	// Repeats resend one of the mixRecent most recent fresh bodies.
	mixRecent = 256
	// The first mixKeep fresh answers are kept for the traced run: the first
	// mixTraceRequests of them are replayed, all of them feed the ledger
	// probe.
	mixKeep          = 256
	mixTraceRequests = 24
	// max_rss_mb is read once mixRSSAt requests have finished: the ledger
	// grows with every fresh request, so a reading at the end of the window
	// would follow the machine's speed.
	mixRSSAt = 8000
	// mixRound is the length of one round of load: the window is a series
	// of rounds, each after its own calibration.
	mixRound = time.Second
)

// mixItem is one request of the serve-mix sequence. Repeats carry no body
// until dispatch picks a finished fresh request to resend.
type mixItem struct {
	class string // "fresh", "dup", "sens" or "repeat"
	req   serve.SweepRequest
	cells int
}

// freshAnswer is a finished fresh request: what a repeat resends and must
// get back byte for byte.
type freshAnswer struct {
	req   serve.SweepRequest
	canon [][]byte
}

// mixBlockItems returns block k of the request sequence.
func mixBlockItems(seed int64, k int, rng *rand.Rand) []mixItem {
	decs := []string{"uf", "blossom"}
	cavity := montecarlo.PanelCavityT1.DefaultValues(5)[1:4]
	n := 0
	// Request seeds are distinct, so no two fresh requests share a cell.
	reqSeed := func() int64 {
		n++
		return (seed%100000)*1_000_000_000_000 + int64(k*mixBlock+n)*10_000_000
	}
	threshold := func(class string, d, i int, rates []float64) mixItem {
		return mixItem{class: class, cells: 2, req: serve.SweepRequest{
			Distances: []int{d}, Rates: rates, Trials: mixTrials, Seed: reqSeed(), Decoder: decs[i%2],
		}}
	}
	var items []mixItem
	for i := range 6 {
		items = append(items, threshold("fresh", 3, i, []float64{1e-3, 2e-3}))
	}
	for i := range 2 {
		items = append(items, threshold("fresh", 5, i, []float64{1e-3, 2e-3}))
	}
	for i, d := range []int{3, 5} {
		p := []float64{1e-3, 2e-3}[rng.IntN(2)]
		items = append(items, threshold("dup", d, i+k, []float64{p, p}))
	}
	for i := range 3 {
		a := rng.IntN(len(cavity))
		c := (a + 1 + rng.IntN(len(cavity)-1)) % len(cavity)
		items = append(items, mixItem{class: "sens", cells: 2, req: serve.SweepRequest{
			Type: "sensitivity", Panel: string(montecarlo.PanelCavityT1), Distances: []int{3},
			Values: []float64{cavity[a], cavity[c]}, Trials: mixTrials, Seed: reqSeed(), Decoder: decs[(i+k)%2],
		}})
	}
	for range mixBlock - len(items) {
		items = append(items, mixItem{class: "repeat"})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	if k == 0 {
		// The first request of each client must be fresh: there is nothing
		// to repeat yet.
		for pos := range 2 {
			for j := pos; items[pos].class == "repeat"; j++ {
				items[pos], items[j] = items[j], items[pos]
			}
		}
	}
	return items
}

// mixRecord is one finished serve-mix request.
type mixRecord struct {
	idx     int
	class   string
	latency time.Duration
	cells   int
	shots   int // engine shots the request caused
}

// keptFresh is a fresh request kept whole for the traced run.
type keptFresh struct {
	idx   int
	req   serve.SweepRequest
	cells []serve.CellRecord
}

// mixLoad is the closed-loop request generator shared by the clients.
type mixLoad struct {
	seed int64
	tr   *tracer
	// Set between rounds, while no client runs: the round's end, and
	// whether its requests are traced.
	deadline time.Time
	traced   bool

	mu      sync.Mutex
	rng     *rand.Rand
	block   []mixItem // the block request next falls in
	next    int
	fresh   []freshAnswer // ring of the mixRecent latest fresh answers
	nfresh  int
	kept    []keptFresh
	records []mixRecord
	scrapes map[string][]float64 // endpoint -> latencies in ms
	rss     float64              // peak RSS once mixRSSAt requests finished
	err     error
	failed  int
}

// take hands out the next request, choosing a recent fresh body for a
// repeat; ok is false once the window has closed or a check failed.
func (m *mixLoad) take() (idx int, it mixItem, ref *freshAnswer, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || (m.next > 0 && time.Now().After(m.deadline)) {
		return 0, it, nil, false
	}
	if m.next%mixBlock == 0 {
		m.block = mixBlockItems(m.seed, m.next/mixBlock, m.rng)
	}
	idx, it = m.next, m.block[m.next%mixBlock]
	m.next++
	if it.class == "repeat" {
		if len(m.fresh) == 0 {
			// Cannot happen with at most two clients: both first requests
			// are fresh, and a client records its answer before taking more.
			m.err = fmt.Errorf("request %d: a repeat with no finished fresh request", idx)
			return 0, it, nil, false
		}
		a := m.fresh[m.rng.IntN(len(m.fresh))]
		ref, it.req, it.cells = &a, a.req, len(a.canon)
	}
	return idx, it, ref, true
}

func (m *mixLoad) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// record stores a checked reply.
func (m *mixLoad) record(rec mixRecord, it mixItem, ref *freshAnswer, canon [][]byte, cells []serve.CellRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ref == nil {
		a := freshAnswer{req: it.req, canon: canon}
		if len(m.fresh) < mixRecent {
			m.fresh = append(m.fresh, a)
		} else {
			m.fresh[m.nfresh%mixRecent] = a
		}
		m.nfresh++
		rec.shots = len(cells) * mixTrials
		if it.class == "dup" {
			rec.shots = mixTrials
		}
		if len(m.kept) < mixKeep {
			m.kept = append(m.kept, keptFresh{idx: rec.idx, req: it.req, cells: cells})
		}
	}
	m.records = append(m.records, rec)
	if len(m.records) == mixRSSAt {
		m.rss = maxRSSMB()
	}
}

// client runs one closed-loop client until the window closes.
func (m *mixLoad) client(s *server, id int) {
	sent := 0
	for {
		idx, it, ref, ok := m.take()
		if !ok {
			return
		}
		body, _ := json.Marshal(it.req) // a SweepRequest always marshals
		start := time.Now()
		rep, lat, err := s.postSweep(body)
		if m.traced {
			m.tr.add("serve.request", fmt.Sprintf("req-%d-%s", idx, it.class), 0, start, start.Add(lat))
		}
		if err != nil {
			m.fail(fmt.Errorf("request %d: %w", idx, err))
			return
		}
		if rep.failed(it.cells) {
			m.mu.Lock()
			m.failed++
			m.mu.Unlock()
			m.fail(checkFail("request %d (%s): status %d, state %q, %d cells", idx, it.class, rep.status, rep.state, len(rep.cells)))
			return
		}
		canon, err := checkMixReply(it, rep, ref)
		if err != nil {
			m.fail(err)
			return
		}
		m.record(mixRecord{idx: idx, class: it.class, latency: lat, cells: len(rep.cells)},
			it, ref, canon, rep.cells)

		sent++
		if id == 0 && sent%mixScrapeEvery == 0 {
			for _, path := range []string{"/metrics", "/v1/stats"} {
				start := time.Now()
				_, lat, err := s.get(path)
				if err != nil {
					m.fail(err)
					return
				}
				m.tr.add("serve.scrape", path, 0, start, start.Add(lat))
				m.mu.Lock()
				m.scrapes[path] = append(m.scrapes[path], millis(lat))
				m.mu.Unlock()
			}
		}
	}
}

// checkMixReply verifies one reply's provenance and bytes and returns its
// canonical cells: fresh cells come from the engine (a duplicated cell's
// second copy from the coalescer), repeats come from the ledger with the
// bytes of the fresh answer.
func checkMixReply(it mixItem, rep sweepReply, ref *freshAnswer) ([][]byte, error) {
	canon := make([][]byte, len(rep.cells))
	coalesced := 0
	for i, c := range rep.cells {
		canon[i] = canonical(c)
		switch {
		case ref != nil:
			if c.Source != "ledger" {
				return nil, checkFail("repeat cell %d came from %q, want ledger", i, c.Source)
			}
			if !bytes.Equal(canon[i], ref.canon[i]) {
				return nil, checkFail("repeat cell %d differs from its fresh answer:\n%s\n%s", i, canon[i], ref.canon[i])
			}
		case c.Source == "coalesced":
			coalesced++
		case c.Source != "":
			return nil, checkFail("fresh %s cell %d came from %q", it.class, i, c.Source)
		}
	}
	if it.class == "dup" && (coalesced != 1 || !bytes.Equal(canon[0], canon[1])) {
		return nil, checkFail("duplicated-cell request: %d coalesced copies, equal bytes %v", coalesced, bytes.Equal(canon[0], canon[1]))
	}
	if it.class != "dup" && coalesced != 0 {
		return nil, checkFail("%s request had %d coalesced cells", it.class, coalesced)
	}
	return canon, nil
}

// mixSetup is serve-mix's set-up: an engine with every structure the mix
// needs, a file ledger and a listening server.
func mixSetup(b *bench, n int) (*server, error) {
	en, err := warmEngine(mixJobs(b.seed), b.width)
	if err != nil {
		return nil, err
	}
	return startServer(en, filepath.Join(b.tmp, fmt.Sprintf("ledger-%d.jsonl", n)), b.width)
}

// mixJobs lists one cell of every structure the mix touches.
func mixJobs(seed int64) []sched.Job {
	var jobs []sched.Job
	for _, it := range mixBlockItems(seed, 0, rand.New(rand.NewPCG(0, 0))) {
		if it.class != "repeat" {
			cells, _ := serve.BuildCells(it.req) // generated requests are valid
			jobs = append(jobs, cells...)
		}
	}
	return jobs
}

func runServeMix(b *bench) error {
	var s *server
	var err error
	n := 0
	if b.tr != nil {
		s, err = mixSetup(b, n)
	} else {
		s, err = measureSetup(b, mixSetupReps, func() (*server, error) { n++; return mixSetup(b, n) }, (*server).close)
	}
	if err != nil {
		return err
	}
	defer s.close()

	s0, err := s.stats()
	if err != nil {
		return err
	}
	cache0 := s.srv.Engine().CacheStats()
	m := &mixLoad{seed: b.seed, tr: b.tr, rng: rand.New(rand.NewPCG(uint64(b.seed), 2)), scrapes: map[string][]float64{}}
	var rounds []mixRoundResult
	start := time.Now()
	k := b.calibrate()
	for b.timeWindow(start, len(rounds)) && m.err == nil {
		from := len(m.records)
		roundStart := time.Now()
		m.deadline, m.traced = roundStart.Add(mixRound), b.tr != nil && len(rounds)%2 == 0
		var wg sync.WaitGroup
		for id := range b.width {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.client(s, id)
			}()
		}
		wg.Wait()
		dur := time.Since(roundStart)
		next := b.calibrate()
		rounds = append(rounds, mixRoundResult{scale: scale(k, next), dur: dur, traced: m.traced, recs: m.records[from:]})
		k = next
	}
	b.attempted += m.next + len(m.scrapes["/metrics"]) + len(m.scrapes["/v1/stats"])
	b.failed += m.failed
	if m.err != nil {
		return m.err
	}
	if b.tr == nil {
		if m.rss == 0 {
			b.note("max_rss_mb read after %d requests, fewer than %d", len(m.records), mixRSSAt)
			m.rss = maxRSSMB()
		}
		b.set("max_rss_mb", m.rss)
	}
	s1, err := s.stats()
	if err != nil {
		return err
	}
	cache1 := s.srv.Engine().CacheStats()

	wantShots, cells := int64(0), 0
	for _, r := range m.records {
		cells += r.cells
		wantShots += int64(r.shots)
	}
	if shots := s1.Decode.Shots - s0.Decode.Shots; shots != wantShots {
		return checkFail("engine decoded %d shots, the fresh requests need %d", shots, wantShots)
	}
	b.note("%d requests in %d rounds, %d scrapes, %.3fs", len(m.records), len(rounds),
		len(m.scrapes["/metrics"])+len(m.scrapes["/v1/stats"]), time.Since(start).Seconds())
	if b.tr != nil {
		return traceMix(b, s, m, rounds, s0, s1, cache0, cache1, cells)
	}
	mixMetrics(b, rounds)
	return nil
}

// mixRoundResult is one round of serve-mix load.
type mixRoundResult struct {
	scale  float64 // calibration scale
	dur    time.Duration
	traced bool
	recs   []mixRecord
}

// mixMetrics reports serve-mix's end-to-end metrics: each metric is
// computed per round, calibrated, and reported as the median over rounds.
func mixMetrics(b *bench, rounds []mixRoundResult) {
	var p50, p95, hit, rate, shots, raw []float64
	for _, r := range rounds {
		var fresh, rep []float64
		n := 0
		for _, rec := range r.recs {
			n += rec.shots
			if rec.class == "repeat" {
				rep = append(rep, millis(rec.latency)*r.scale)
			} else {
				fresh = append(fresh, millis(rec.latency)*r.scale)
			}
		}
		if len(fresh) == 0 || len(rep) == 0 {
			continue
		}
		p50 = append(p50, quantile(fresh, 0.5))
		p95 = append(p95, quantile(fresh, 0.95))
		hit = append(hit, quantile(rep, 0.5))
		rate = append(rate, float64(len(r.recs))/r.dur.Seconds()/r.scale)
		shots = append(shots, float64(n)/r.dur.Seconds()/r.scale)
		raw = append(raw, float64(len(r.recs))/r.dur.Seconds())
	}
	if len(rate) == 0 {
		b.note("no round held both fresh and repeat requests")
		return
	}
	b.set("p50_ms", quantile(p50, 0.5))
	b.set("p95_ms", quantile(p95, 0.5))
	b.set("hit_p50_ms", quantile(hit, 0.5))
	b.set("req_per_s", quantile(rate, 0.5))
	b.set("shots_per_s", quantile(shots, 0.5))
	b.set("wall_s", mixBlock/quantile(rate, 0.5)) // one block of requests
	b.note("%d rounds of %v: calibrated median %.0f requests/s, raw median %.0f", len(rate), mixRound,
		quantile(rate, 0.5), quantile(raw, 0.5))
}
