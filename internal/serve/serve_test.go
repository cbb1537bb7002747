package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// rowBody is a small but real Fig. 11 row: the baseline scheme at d=3
// across three physical rates. Fixed seed, so repeat submissions must
// return bit-identical cells.
const rowBody = `{"scheme":"baseline","distances":[3],"rates":[0.004,0.008,0.016],"trials":300,"seed":7}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSweep(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes one NDJSON response: the cell lines and the trailing
// JobStatus line.
func readStream(t *testing.T, resp *http.Response) ([]CellRecord, JobStatus) {
	t.Helper()
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var status JobStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &status); err != nil {
		t.Fatalf("trailing status line %q: %v", lines[len(lines)-1], err)
	}
	var cells []CellRecord
	for _, ln := range lines[:len(lines)-1] {
		var rec CellRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("cell line %q: %v", ln, err)
		}
		cells = append(cells, rec)
	}
	return cells, status
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitForState(t *testing.T, ts *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s settled on %q, want %q", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

// stripSource clears the provenance column: the scientific payload must be
// bit-identical whether a cell ran on the engine or came from the ledger
// or a coalesced run, and Source is the one field allowed to differ.
func stripSource(rec CellRecord) CellRecord {
	rec.Source = ""
	return rec
}

// byIndex orders a stream's cells by their sweep index, failing unless it
// holds every index 0..len-1 exactly once. The scheduler streams cells in
// completion order, which is nondeterministic, so tests comparing two
// streams pair cells by index rather than by arrival position.
func byIndex(t *testing.T, cells []CellRecord) []CellRecord {
	t.Helper()
	out := make([]CellRecord, len(cells))
	seen := make([]bool, len(cells))
	for _, rec := range cells {
		if rec.Index < 0 || rec.Index >= len(cells) || seen[rec.Index] {
			t.Fatalf("stream of %d cells has a missing or repeated index %d", len(cells), rec.Index)
		}
		seen[rec.Index] = true
		out[rec.Index] = rec
	}
	return out
}

// The acceptance path: a Fig. 11 row streams per-cell NDJSON records and
// ends done; an identical second submission is served entirely from the
// result ledger — no engine work at all, not even cache hits — and a
// third no_cache submission bypasses the ledger, re-running on the engine
// via its structure cache. All three return bit-identical cells.
func TestSubmitStreamCompleteAndRepeatHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first, status := readStream(t, postSweep(t, ts, "/v1/sweeps", rowBody))
	if status.State != StateDone {
		t.Fatalf("first sweep state %q, want %q (error %q)", status.State, StateDone, status.Error)
	}
	if len(first) != 3 || status.Cells != 3 || status.Completed != 3 {
		t.Fatalf("first sweep: %d cells streamed, status %+v", len(first), status)
	}
	first = byIndex(t, first)
	for _, rec := range first {
		if rec.Scheme != "baseline" || rec.Distance != 3 || rec.Trials != 300 || rec.Error != "" {
			t.Errorf("bad cell record %+v", rec)
		}
		if rec.Source != "" {
			t.Errorf("cold cell %d has source %q, want engine (empty)", rec.Index, rec.Source)
		}
	}
	if st, code := getStatus(t, ts, status.ID); code != http.StatusOK || st.State != StateDone {
		t.Errorf("GET status: HTTP %d, %+v", code, st)
	}

	before := getStats(t, ts)
	if before.Engine.Builds == 0 {
		t.Fatalf("first sweep reported no structure builds: %+v", before.Engine)
	}
	if before.Ledger.Entries != 3 || before.Ledger.Appends != 3 {
		t.Fatalf("first sweep left ledger %+v, want 3 entries / 3 appends", before.Ledger)
	}

	second, status2 := readStream(t, postSweep(t, ts, "/v1/sweeps", rowBody))
	if status2.State != StateDone {
		t.Fatalf("second sweep state %q (error %q)", status2.State, status2.Error)
	}
	second = byIndex(t, second)
	after := getStats(t, ts)
	// Ledger-served: the engine was not consulted at all.
	if after.Engine.Builds != before.Engine.Builds || after.Engine.Hits != before.Engine.Hits {
		t.Errorf("second identical sweep touched the engine: builds %d -> %d, hits %d -> %d",
			before.Engine.Builds, after.Engine.Builds, before.Engine.Hits, after.Engine.Hits)
	}
	if got := after.Ledger.Hits - before.Ledger.Hits; got < int64(len(second)) {
		t.Errorf("second sweep recorded %d ledger hits, want >= %d", got, len(second))
	}
	for i := range first {
		if second[i].Source != "ledger" {
			t.Errorf("repeat cell %d has source %q, want %q", i, second[i].Source, "ledger")
		}
		if first[i] != stripSource(second[i]) {
			t.Errorf("cell %d differs between identical submissions:\n  %+v\n  %+v",
				i, first[i], second[i])
		}
	}

	// no_cache opts out of the ledger: the engine runs again (structure
	// cache hits, no rebuilds) and the bytes still match.
	third, status3 := readStream(t, postSweep(t, ts, "/v1/sweeps",
		`{"no_cache":true,"scheme":"baseline","distances":[3],"rates":[0.004,0.008,0.016],"trials":300,"seed":7}`))
	if status3.State != StateDone {
		t.Fatalf("no_cache sweep state %q (error %q)", status3.State, status3.Error)
	}
	third = byIndex(t, third)
	final := getStats(t, ts)
	if final.Engine.Builds != after.Engine.Builds {
		t.Errorf("no_cache sweep rebuilt structures: %d -> %d builds",
			after.Engine.Builds, final.Engine.Builds)
	}
	if got := final.Engine.Hits - after.Engine.Hits; got < int64(len(third)) {
		t.Errorf("no_cache sweep recorded %d engine cache hits, want >= %d", got, len(third))
	}
	for i := range first {
		if third[i].Source != "" {
			t.Errorf("no_cache cell %d has source %q, want engine (empty)", i, third[i].Source)
		}
		if first[i] != third[i] {
			t.Errorf("cell %d differs between engine runs:\n  %+v\n  %+v", i, first[i], third[i])
		}
	}
}

// Concurrent submissions of the same experiment run each cell exactly once
// between them: the first job to plan a cell leads it through the engine's
// once-guarded structure cache and everyone else is fed by the ledger or
// the coalescer — observable as one build and exactly one sweep's worth of
// decoded shots, with all four streams bit-identical.
func TestConcurrentSubmitsShareCachedStructures(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrentJobs: 4})
	var mu sync.Mutex
	streams := make([][]CellRecord, 0, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", rowBody))
			if status.State != StateDone {
				t.Errorf("sweep state %q (error %q)", status.State, status.Error)
			}
			mu.Lock()
			streams = append(streams, cells)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for k := range streams {
		streams[k] = byIndex(t, streams[k])
	}
	st := getStats(t, ts)
	if st.Engine.Builds != 1 {
		t.Errorf("4 concurrent identical sweeps built %d structures, want 1", st.Engine.Builds)
	}
	// Exactly one engine execution per distinct cell: 3 cells x 300 trials.
	if got := srv.decodeCounts().Trials; got != 900 {
		t.Errorf("decoded %d shots across 4 identical sweeps, want 900 (each cell ran once)", got)
	}
	if dedup := st.Ledger.Hits + st.Ledger.CoalesceHits; dedup != 9 {
		t.Errorf("ledger hits (%d) + coalesce hits (%d) = %d, want 9 (12 cells, 3 engine runs)",
			st.Ledger.Hits, st.Ledger.CoalesceHits, dedup)
	}
	for k := 1; k < len(streams); k++ {
		for i := range streams[0] {
			if stripSource(streams[0][i]) != stripSource(streams[k][i]) {
				t.Errorf("stream %d cell %d diverged:\n  %+v\n  %+v",
					k, i, streams[0][i], streams[k][i])
			}
		}
	}
}

// A synchronous submitter owns its job: disconnecting mid-stream cancels
// it. The beforeRun gate holds the job in "running" so the disconnect
// deterministically precedes any cell work.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	resp := postSweep(t, ts, "/v1/sweeps", rowBody)
	id := resp.Header.Get("X-Sweep-Job")
	if id == "" {
		t.Fatal("no X-Sweep-Job header on streaming response")
	}
	waitForState(t, ts, id, StateRunning)
	resp.Body.Close() // disconnect mid-stream

	st := waitForState(t, ts, id, StateCancelled)
	if st.Completed != 0 {
		t.Errorf("cancelled job completed %d cells, want 0", st.Completed)
	}
}

// Async submission detaches from the request: 202 immediately, status
// polls to done, and /results replays the full stream afterwards. DELETE
// cancels a held job.
func TestAsyncSubmitResultsReplayAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp := postSweep(t, ts, "/v1/sweeps?async=1", rowBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForState(t, ts, st.ID, StateDone)

	rresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	cells, final := readStream(t, rresp)
	if len(cells) != 3 || final.State != StateDone {
		t.Fatalf("replay: %d cells, state %q", len(cells), final.State)
	}

	// DELETE cancels a job held before any cell runs.
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	resp = postSweep(t, ts, "/v1/sweeps?async=1", rowBody)
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForState(t, ts, st.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitForState(t, ts, st.ID, StateCancelled)
}

// hugeBody expands to two cells (d=3 and d=5) whose trial budgets are each
// far more work than any test allows time for, so cancellation lands
// mid-cell, and no cell can complete before the cancel lands (which is
// what makes the Completed == 0 assertions safe).
const hugeBody = `{"scheme":"baseline","distances":[3,5],"rates":[0.008],"trials":5000000,"jobs":2,"seed":3}`

// DELETE on a job whose cells are in flight aborts them at their next
// batch: the job settles on cancelled well before the cells' full trial
// budget could run, and the aborted cells emit no partial CellRecords.
func TestDeleteAbortsInFlightShardedCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postSweep(t, ts, "/v1/sweeps?async=1", hugeBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForState(t, ts, st.ID, StateRunning)
	time.Sleep(50 * time.Millisecond) // let the cells get in flight

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	final := waitForState(t, ts, st.ID, StateCancelled)
	if final.Completed != 0 {
		t.Errorf("cancelled job streamed %d cell records, want 0 (no partial cells)", final.Completed)
	}

	// Replay must end with the cancelled status and no cell lines.
	rresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	cells, replay := readStream(t, rresp)
	if len(cells) != 0 || replay.State != StateCancelled {
		t.Errorf("replay after cancel: %d cells, state %q", len(cells), replay.State)
	}
}

// A synchronous submitter's disconnect does the same through the request
// context: in-flight cells abort and the job records no partial cells.
func TestClientDisconnectAbortsInFlightShardedCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postSweep(t, ts, "/v1/sweeps", hugeBody)
	id := resp.Header.Get("X-Sweep-Job")
	if id == "" {
		t.Fatal("no X-Sweep-Job header on streaming response")
	}
	waitForState(t, ts, id, StateRunning)
	time.Sleep(50 * time.Millisecond) // let the cells get in flight
	resp.Body.Close()                 // disconnect mid-stream

	final := waitForState(t, ts, id, StateCancelled)
	if final.Completed != 0 {
		t.Errorf("disconnected job streamed %d cell records, want 0 (no partial cells)", final.Completed)
	}
}

// Admission control: with one run slot and a queue of one, the third
// simultaneous job is rejected with 429 instead of queueing unboundedly.
func TestBackpressureRejectsBeyondQueueDepth(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.beforeRun = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	var ids []string
	for i := 0; i < 2; i++ {
		resp := postSweep(t, ts, "/v1/sweeps?async=1", rowBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, st.ID)
	}
	waitForState(t, ts, ids[0], StateRunning) // slot taken, ids[1] queued

	resp := postSweep(t, ts, "/v1/sweeps?async=1", rowBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp.StatusCode)
	}

	close(release)
	for _, id := range ids {
		waitForState(t, ts, id, StateDone)
	}
}

// Admission is bounded by running+queued, not by the two counts
// separately: a burst landing before any job's goroutine reaches the
// running state must still be capped at MaxConcurrentJobs + QueueDepth.
func TestBackpressureBoundsSimultaneousBurst(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentJobs: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	accepted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSweep(t, ts, "/v1/sweeps?async=1", rowBody)
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				mu.Lock()
				accepted++
				mu.Unlock()
			case http.StatusTooManyRequests:
			default:
				t.Errorf("burst submit: HTTP %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if accepted > 2 {
		t.Errorf("burst admitted %d jobs, want <= 2 (1 running + 1 queued)", accepted)
	}
	if accepted == 0 {
		t.Error("burst admitted no jobs")
	}
}

// Every malformed submission is a 4xx with a JSON error body, and unknown
// job ids are 404s.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"trials":`},
		{"unknown field", `{"trails":100}`},
		{"unknown type", `{"type":"tomography"}`},
		{"unknown scheme", `{"scheme":"qldpc"}`},
		{"unknown decoder", `{"decoder":"bp-osd"}`},
		{"retired mwpm decoder", `{"decoder":"mwpm"}`},
		{"retired exact decoder", `{"decoder":"exact"}`},
		{"retired decode_pipeline field", `{"decode_pipeline":false}`},
		{"negative trials", `{"trials":-5}`},
		{"negative target", `{"target_failures":-1}`},
		{"even distance", `{"distances":[4]}`},
		{"negative shard_shots", `{"shard_shots":-1}`},
		{"shard_shots in local mode", `{"shard_shots":1024}`},
		{"rate out of range", `{"rates":[1.5]}`},
		{"sensitivity without panel", `{"type":"sensitivity"}`},
		{"unknown panel", `{"type":"sensitivity","panel":"gate-fidelity"}`},
		{"panel on threshold", `{"panel":"cavity-t1"}`},
		{"values on threshold", `{"values":[0.001]}`},
		{"rates on sensitivity", `{"type":"sensitivity","panel":"cavity-t1","rates":[0.008]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSweep(t, ts, "/v1/sweeps", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON: %v (%q)", err, e.Error)
			}
		})
	}

	if _, code := getStatus(t, ts, "sw-999999"); code != http.StatusNotFound {
		t.Errorf("unknown id status: HTTP %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/sw-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id delete: HTTP %d, want 404", resp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweeps: HTTP %d, want 405", gresp.StatusCode)
	}
}

// A sensitivity sweep goes through the same pipeline with panel/value
// coordinates on its records, and SSE framing works end to end.
func TestSensitivitySweepAndSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"type":"sensitivity","panel":"cavity-t1","distances":[3],"values":[0.0001,0.01],"trials":200}`

	cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", body))
	if status.State != StateDone || len(cells) != 2 {
		t.Fatalf("sensitivity sweep: state %q, %d cells", status.State, len(cells))
	}
	for _, rec := range cells {
		if rec.Panel != "cavity-t1" || rec.Distance != 3 || rec.Value == 0 {
			t.Errorf("bad sensitivity record %+v", rec)
		}
	}

	resp := postSweep(t, ts, "/v1/sweeps?stream=sse", body)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := raw.String()
	if got := strings.Count(text, "event: cell"); got != 2 {
		t.Errorf("SSE stream has %d cell events, want 2:\n%s", got, text)
	}
	if !strings.Contains(text, "event: done") {
		t.Errorf("SSE stream missing done event:\n%s", text)
	}
}

// The registry retains only the configured number of finished jobs.
func TestFinishedJobEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{RetainJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		// Distinct seeds keep the jobs distinct; structures still share.
		body := fmt.Sprintf(`{"scheme":"baseline","distances":[3],"rates":[0.008],"trials":100,"seed":%d}`, i)
		_, status := readStream(t, postSweep(t, ts, "/v1/sweeps", body))
		if status.State != StateDone {
			t.Fatalf("sweep %d state %q", i, status.State)
		}
		ids = append(ids, status.ID)
	}
	st := getStats(t, ts)
	if st.Jobs.Retained > 2 {
		t.Errorf("registry retains %d jobs, want <= 2", st.Jobs.Retained)
	}
	if st.Jobs.Submitted != 4 {
		t.Errorf("submitted = %d, want 4", st.Jobs.Submitted)
	}
	if _, code := getStatus(t, ts, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job still queryable: HTTP %d, want 404", code)
	}
	if _, code := getStatus(t, ts, ids[3]); code != http.StatusOK {
		t.Errorf("newest job evicted: HTTP %d, want 200", code)
	}
}

// A job's stream must not end before the eviction its finish triggers,
// or a client that reads /v1/stats right after its stream ends can see
// RetainJobs+1 finished jobs. The test holds the registry lock while a
// job finishes — after its run, or cancelled while it waits for a run
// slot — so a job that reaches a terminal state before the lock is
// released has been finished ahead of its eviction pass.
func TestEvictionPrecedesStreamEnd(t *testing.T) {
	for _, path := range []string{"run", "cancel-before-slot"} {
		t.Run(path, func(t *testing.T) {
			s, ts := newTestServer(t, Config{RetainJobs: 1, MaxConcurrentJobs: 1})
			release := make(chan struct{})
			defer close(release)
			s.beforeRun = func(ctx context.Context) error {
				select {
				case <-release:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			submit := func(seed int) string {
				body := fmt.Sprintf(`{"scheme":"baseline","distances":[3],"rates":[0.008],"trials":20,"seed":%d}`, seed)
				resp := postSweep(t, ts, "/v1/sweeps?async=1", body)
				defer resp.Body.Close()
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				return st.ID
			}
			first := submit(1)
			release <- struct{}{}
			waitForState(t, ts, first, StateDone)
			held := submit(2)
			waitForState(t, ts, held, StateRunning)

			target, want := held, StateDone
			end := func(*job) { release <- struct{}{} }
			if path == "cancel-before-slot" {
				// The held job keeps the only run slot, so this one is
				// still queued when it is cancelled.
				target, want = submit(3), StateCancelled
				end = func(jb *job) { jb.cancel() }
			}

			s.mu.Lock()
			jb := s.jobs[target]
			end(jb)
			deadline := time.Now().Add(500 * time.Millisecond)
			for time.Now().Before(deadline) && !terminal(jb.stateNow()) {
				time.Sleep(time.Millisecond)
			}
			if terminal(jb.stateNow()) {
				finished := 0
				for _, j := range s.order {
					if terminal(j.stateNow()) {
						finished++
					}
				}
				if finished > s.cfg.RetainJobs {
					t.Errorf("job %s ended with %d finished jobs registered, retention is %d: eviction must come first",
						target, finished, s.cfg.RetainJobs)
				}
			}
			s.mu.Unlock()

			waitForState(t, ts, target, want)
			if _, code := getStatus(t, ts, first); code != http.StatusNotFound {
				t.Errorf("oldest finished job still queryable: HTTP %d, want 404", code)
			}
		})
	}
}

// Liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// The decode pipeline is always on: cells report their skip/dedup hit
// counts, and /v1/stats aggregates them process-wide.
func TestDecodePipelineCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", rowBody))
	if status.State != StateDone {
		t.Fatalf("sweep state %q (error %q)", status.State, status.Error)
	}
	var shots, skipped, dedup int
	for _, rec := range cells {
		shots += rec.Trials
		skipped += rec.Skipped
		dedup += rec.DedupHits
	}
	if skipped == 0 {
		t.Errorf("no zero-defect shots skipped across %d shots; counters not surfaced", shots)
	}
	st := getStats(t, ts)
	if st.Decode.Shots != int64(shots) || st.Decode.Skipped != int64(skipped) || st.Decode.DedupHits != int64(dedup) {
		t.Errorf("/v1/stats decode %+v, want %d/%d/%d shots/skipped/dedup",
			st.Decode, shots, skipped, dedup)
	}
}

// Each job's scheduler pool takes its workers' states from the engine and
// hands them back when the job ends, so sequential fresh requests run on
// the states the first one created: 20 of them at pool width 2 create at
// most 2, as both /v1/stats and /metrics report.
func TestSequentialRequestsReuseWarmStates(t *testing.T) {
	const width = 2
	_, ts := newTestServer(t, Config{DefaultPoolWidth: width})
	for seed := 1; seed <= 20; seed++ {
		body := fmt.Sprintf(`{"scheme":"baseline","distances":[3,5],"rates":[0.004],"trials":200,"seed":%d}`, seed)
		cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", body))
		if status.State != StateDone {
			t.Fatalf("seed %d: state %q (error %q)", seed, status.State, status.Error)
		}
		for _, rec := range cells {
			if rec.Source != "" {
				t.Fatalf("seed %d: cell %d from %q, want a fresh engine run", seed, rec.Index, rec.Source)
			}
		}
	}
	made := getStats(t, ts).Engine.WorkerStates
	if made < 1 || made > width {
		t.Errorf("20 sequential requests at pool width %d created %d worker states", width, made)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("vlq_engine_worker_states_total %d\n", made); !strings.Contains(string(b), want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
}
