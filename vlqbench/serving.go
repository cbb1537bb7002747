package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

// server is an in-process serve.Server on a loopback listener, backed by a
// file ledger.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	ledger serve.Ledger
	url    string
	served chan struct{} // closed when the HTTP server's Serve returns
	client *http.Client
}

func startServer(en *montecarlo.Engine, ledgerPath string, width int) (*server, error) {
	ledger, err := serve.OpenFileLedger(ledgerPath)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ledger.Close()
		return nil, err
	}
	s := &server{
		srv:    serve.NewServer(serve.Config{Engine: en, Ledger: ledger, DefaultPoolWidth: width, MaxConcurrentJobs: width}),
		ledger: ledger,
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * width}},
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	if _, _, err := s.get("/healthz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server, waits for its HTTP loop to exit and closes the
// ledger.
func (s *server) close() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.ledger.Close()
}

// get fetches one endpoint, returning the body and the call's latency.
func (s *server) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, lat, nil
}

func (s *server) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	body, _, err := s.get("/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// sweepReply is one synchronous POST /v1/sweeps: its status, the streamed
// cells ordered by index, and the trailing job state.
type sweepReply struct {
	status int
	cells  []serve.CellRecord
	state  string
}

// postSweep submits a sweep and reads the whole NDJSON stream; the latency
// runs until the trailing job status has arrived.
func (s *server) postSweep(body []byte) (sweepReply, time.Duration, error) {
	var rep sweepReply
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, 0, err
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		lines = append(lines, slices.Clone(sc.Bytes()))
	}
	lat := time.Since(start)
	if err := sc.Err(); err != nil {
		return rep, lat, err
	}
	if rep.status != http.StatusOK || len(lines) == 0 {
		return rep, lat, nil
	}
	var trailer serve.JobStatus
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		return rep, lat, fmt.Errorf("stream trailer: %w", err)
	}
	rep.state = trailer.State
	for _, ln := range lines[:len(lines)-1] {
		var rec serve.CellRecord
		if err := json.Unmarshal(ln, &rec); err != nil {
			return rep, lat, fmt.Errorf("stream cell: %w", err)
		}
		rep.cells = append(rep.cells, rec)
	}
	slices.SortFunc(rep.cells, func(a, c serve.CellRecord) int { return a.Index - c.Index })
	return rep, lat, nil
}

// failed reports whether the reply counts as a failed request: a non-200
// status (429 included), a trailer other than "done", or an errored cell.
func (r sweepReply) failed(cells int) bool {
	if r.status != http.StatusOK || r.state != "done" || len(r.cells) != cells {
		return true
	}
	for i, c := range r.cells {
		if c.Index != i || c.Error != "" {
			return true
		}
	}
	return false
}

// canonical is a cell's bytes without its job-local index and provenance.
func canonical(rec serve.CellRecord) []byte {
	rec.Index, rec.Source = 0, ""
	buf, _ := json.Marshal(rec) // a CellRecord always marshals
	return buf
}

// engineTime runs a request's distinct cells through a scheduler on en, as
// the server would, and returns the run's duration.
func engineTime(en *montecarlo.Engine, req serve.SweepRequest, width int) (time.Duration, error) {
	cells, err := serve.BuildCells(req)
	if err != nil {
		return 0, err
	}
	var jobs []sched.Job
	for _, c := range cells {
		if !slices.ContainsFunc(jobs, func(j sched.Job) bool { return j.Cfg == c.Cfg && j.Tag == c.Tag }) {
			jobs = append(jobs, c)
		}
	}
	start := time.Now()
	if _, err := sched.New(en, sched.Options{Jobs: width}).Run(jobs); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// ledgerProbe times Ledger.Put and Ledger.Get on a fresh file ledger with
// the workload's cell records, at least minOps of each.
func ledgerProbe(b *bench, path string, recs []serve.CellRecord) error {
	const minOps = 256
	if len(recs) == 0 {
		return fmt.Errorf("ledger probe: no records")
	}
	l, err := serve.OpenFileLedger(path)
	if err != nil {
		return err
	}
	defer l.Close()
	n := max(minOps, len(recs))
	var puts, gets []float64
	for i := range n {
		rec := recs[i%len(recs)]
		start := time.Now()
		l.Put(fmt.Sprintf("probe|%d", i), rec)
		puts = append(puts, float64(time.Since(start))/1e3)
	}
	for i := range n {
		start := time.Now()
		got, ok := l.Get(fmt.Sprintf("probe|%d", i))
		gets = append(gets, float64(time.Since(start))/1e3)
		if !ok || !bytes.Equal(canonical(got), canonical(recs[i%len(recs)])) {
			return checkFail("ledger probe: record %d did not round-trip", i)
		}
	}
	if st := l.Stats(); st.Errors != 0 {
		return checkFail("ledger probe: %d write errors", st.Errors)
	}
	b.set("serve.ledger_put_us", quantile(puts, 0.5))
	b.set("serve.ledger_get_us", quantile(gets, 0.5))
	return nil
}

// statsDelta turns two /v1/stats snapshots into the serving layer's hit
// fractions over the interval; cells is the number of cells requested.
func statsDelta(b *bench, s0, s1 serve.StatsResponse, cells int) {
	hits := s1.Ledger.Hits - s0.Ledger.Hits
	lookups := hits + s1.Ledger.Misses - s0.Ledger.Misses
	b.set("serve.ledger_hit_frac", ratio(float64(hits), float64(lookups)))
	b.set("serve.coalesce_hit_frac", ratio(float64(s1.Ledger.CoalesceHits-s0.Ledger.CoalesceHits), float64(cells)))
}

func ratio(a, c float64) float64 {
	if c == 0 {
		return 0
	}
	return a / c
}
