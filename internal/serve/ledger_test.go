package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/decoder"
	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// The restart round trip the file ledger exists for: a sweep served by one
// process is replayed by the next from the JSONL file alone — a fresh
// engine does zero builds, every cell arrives marked "ledger", and the
// payload is bit-identical.
func TestFileLedgerReplaysAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")

	led1, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(Config{Ledger: led1})
	ts1 := httptest.NewServer(s1)
	first, status := readStream(t, postSweep(t, ts1, "/v1/sweeps", rowBody))
	ts1.Close()
	s1.Close()
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone {
		t.Fatalf("cold sweep ended %q (error %q)", status.State, status.Error)
	}
	first = byIndex(t, first)

	led2, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led2.Close() })
	if st := led2.Stats(); st.Entries != len(first) || st.Backend != path {
		t.Fatalf("replayed ledger stats %+v, want %d entries from %s", st, len(first), path)
	}
	_, ts2 := newTestServer(t, Config{Ledger: led2})
	second, status2 := readStream(t, postSweep(t, ts2, "/v1/sweeps", rowBody))
	if status2.State != StateDone {
		t.Fatalf("replayed sweep ended %q (error %q)", status2.State, status2.Error)
	}
	second = byIndex(t, second)
	st := getStats(t, ts2)
	if st.Engine.Builds != 0 {
		t.Errorf("replayed sweep built %d structures on a fresh engine, want 0", st.Engine.Builds)
	}
	if st.Ledger.Hits < int64(len(second)) {
		t.Errorf("ledger hits = %d, want >= %d", st.Ledger.Hits, len(second))
	}
	for i := range first {
		if second[i].Source != "ledger" {
			t.Errorf("replayed cell %d has source %q, want %q", i, second[i].Source, "ledger")
		}
		if first[i] != stripSource(second[i]) {
			t.Errorf("cell %d changed across restart:\n  %+v\n  %+v", i, first[i], second[i])
		}
	}
}

// A torn trailing line — the shape a crash mid-append leaves behind — must
// not poison replay of the intact prefix.
func TestFileLedgerSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Put("cell-a", CellRecord{Distance: 3, LogicalRate: 0.5, Trials: 10})
	led.Put("cell-b", CellRecord{Distance: 5, LogicalRate: 0.25, Trials: 10})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-c","cell":{"dist`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenFileLedger(path)
	if err != nil {
		t.Fatalf("torn tail made the ledger unopenable: %v", err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Entries != 2 {
		t.Errorf("replayed %d entries past a torn tail, want 2", st.Entries)
	}
	if rec, ok := reopened.Get("cell-b"); !ok || rec.Distance != 5 {
		t.Errorf("intact entry lost: %+v, %v", rec, ok)
	}
	if _, ok := reopened.Get("cell-c"); ok {
		t.Error("torn entry resurrected")
	}
}

// The first record appended after a torn tail must survive the next
// replay: the fragment has no newline, so without repair on open the new
// line is glued onto it and dropped with it as corrupt.
func TestFileLedgerAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ledger")
	led, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Put("a", CellRecord{Distance: 3, Trials: 10})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"b","ce`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	led, err = OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Put("c", CellRecord{Distance: 7, Trials: 30})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec, ok := reopened.Get("c"); !ok || rec.Distance != 7 {
		t.Errorf("record appended after a torn tail lost on replay: %+v, %v", rec, ok)
	}
	if _, ok := reopened.Get("a"); !ok {
		t.Error("record before the torn tail lost on replay")
	}
	if st := reopened.Stats(); st.Entries != 2 {
		t.Errorf("replayed %d entries, want 2 (a and c)", st.Entries)
	}
}

// Duplicate Puts keep the first record and append once — the property that
// makes concurrent leaders and no_cache re-derivations harmless.
func TestLedgerDuplicatePutsAreIdempotent(t *testing.T) {
	led := NewMemLedger()
	led.Put("k", CellRecord{Trials: 1})
	led.Put("k", CellRecord{Trials: 2})
	if st := led.Stats(); st.Entries != 1 || st.Appends != 1 {
		t.Errorf("stats %+v, want 1 entry / 1 append", st)
	}
	if rec, _ := led.Get("k"); rec.Trials != 1 {
		t.Errorf("second Put overwrote the first: %+v", rec)
	}
}

// canonicalRecord strips exactly the job-local fields.
func TestCanonicalRecordStripsJobLocalFields(t *testing.T) {
	rec := CellRecord{Index: 7, Source: sourceCoalesced, Distance: 3, Trials: 100, Failures: 4}
	got := canonicalRecord(rec)
	want := CellRecord{Distance: 3, Trials: 100, Failures: 4}
	if got != want {
		t.Errorf("canonicalRecord(%+v) = %+v, want %+v", rec, got, want)
	}
}

// A single job holding the same cell twice coalesces it with itself: the
// leader entry created for the first copy feeds the second, so the cell
// decodes once. Deterministic — no cross-job race needed — because both
// copies are planned in the same pass.
func TestIntraJobDuplicateCellsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"scheme":"baseline","distances":[3],"rates":[0.008,0.008],"trials":300,"seed":7}`
	cells, status := readStream(t, postSweep(t, ts, "/v1/sweeps", body))
	if status.State != StateDone {
		t.Fatalf("sweep ended %q (error %q)", status.State, status.Error)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	if got := s.decodeCounts().Trials; got != 300 {
		t.Errorf("decoded %d shots for twin cells, want 300 (one execution)", got)
	}
	st := getStats(t, ts)
	if st.Ledger.CoalesceHits != 1 {
		t.Errorf("coalesce hits = %d, want 1", st.Ledger.CoalesceHits)
	}
	bySource := map[string]int{}
	for _, c := range cells {
		bySource[c.Source]++
	}
	if bySource[""] != 1 || bySource[sourceCoalesced] != 1 {
		t.Errorf("sources %v, want one engine cell and one coalesced", bySource)
	}
	a, b := cells[0], cells[1]
	a.Index, b.Index = 0, 0
	if stripSource(a) != stripSource(b) {
		t.Errorf("twin cells diverged:\n  %+v\n  %+v", cells[0], cells[1])
	}
}

// Coalescer protocol unit test: ledger-first probing, single leadership,
// follower hand-off on resolve, and re-planning after abort.
func TestCoalescerPlanResolveAbort(t *testing.T) {
	led := NewMemLedger()
	c := newCoalescer()

	plan, _, e1 := c.planCell(led, "k")
	if plan != planLead || e1 == nil {
		t.Fatalf("first plan = %v, want lead", plan)
	}
	plan, _, e2 := c.planCell(led, "k")
	if plan != planFollow || e2 != e1 {
		t.Fatalf("second plan = %v (entry %p vs %p), want follow of the leader's entry", plan, e2, e1)
	}
	if c.pendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", c.pendingCount())
	}

	// Leader aborts: the follower's entry closes without a result and the
	// next plan claims fresh leadership.
	c.abort("k", e1)
	<-e1.done
	if e1.ok {
		t.Error("aborted entry reports ok")
	}
	plan, _, e3 := c.planCell(led, "k")
	if plan != planLead || e3 == e1 {
		t.Fatalf("post-abort plan = %v, want a fresh leadership", plan)
	}

	// Resolve with the ledger write first: later plans are ledger-served.
	rec := CellRecord{Distance: 3, Trials: 42}
	led.Put("k", rec)
	c.resolve("k", e3, rec)
	<-e3.done
	if !e3.ok || e3.rec != rec {
		t.Errorf("resolved entry = ok %v rec %+v, want the record", e3.ok, e3.rec)
	}
	plan, got, _ := c.planCell(led, "k")
	if plan != planLedger || got != rec {
		t.Errorf("post-resolve plan = %v / %+v, want ledger-served record", plan, got)
	}
	if c.pendingCount() != 0 {
		t.Errorf("pending = %d after resolve, want 0", c.pendingCount())
	}
}

// The stored ledger line is the durable contract between releases: a file
// written by one build is replayed by the next, so its key and cell bytes
// must not drift. This pins the line for a plain cell, a rare-event cell,
// and a rare-event cell with no failures yet (rel_err -1).
func TestLedgerLineFormat(t *testing.T) {
	plain := sched.Job{
		Cfg: montecarlo.ThresholdCellConfig(extract.CompactInterleaved, 5, 4e-3, hardware.Default(),
			2000, 11, montecarlo.UF, montecarlo.SweepOptions{}),
		Tag: sched.ThresholdCell{Scheme: extract.CompactInterleaved, Distance: 5, Phys: 4e-3},
	}
	rare := sched.Job{
		Cfg: montecarlo.ThresholdCellConfig(extract.Baseline, 9, 1e-3, hardware.Default(),
			32768, 4242, montecarlo.UF, montecarlo.SweepOptions{RareEvent: true, Boost: 1.5}),
		Tag: sched.ThresholdCell{Scheme: extract.Baseline, Distance: 9, Phys: 1e-3},
	}
	weighted := montecarlo.WeightedResult{
		Shots: 32768, SumW: 32397.473160502912, SumW2: 91293.63219123585,
		SumWFail: 9.224334324822518, SumW2Fail: 3.170974254434215, MaxW: 24.923388973973555,
	}
	cell := func(j sched.Job, trials, failures, skipped, dedup int, st decoder.DecoderStats, w montecarlo.WeightedResult) sched.CellResult {
		r := sched.CellResult{Index: 3, Job: j}
		r.Result.Config = j.Cfg
		r.Result.Trials, r.Result.Failures = trials, failures
		r.Result.Skipped, r.Result.DedupHits = skipped, dedup
		r.Result.Stats, r.Result.Weighted = st, w
		r.Result.Mechanisms, r.Result.DetectorCount = 999, 72
		return r
	}
	noFail := weighted
	noFail.SumWFail, noFail.SumW2Fail = 0, 0
	for _, tc := range []struct {
		name string
		r    sched.CellResult
		want string
	}{
		{"plain", cell(plain, 2000, 37, 1500, 60, decoder.DecoderStats{UFGrowthRounds: 900, UFEdgeScans: 4000, UFPeelNodes: 1200}, montecarlo.WeightedResult{}),
			`{"key":"t|compact-interleaved|5|0x1.0624dd2f1a9fcp-08|sh=1|c2|compact-interleaved|d=5|r=5|b=Z|n=2000|s=4039606|dec=uf|cgi=0|tf=0|rare=0|boost=0x0p+00|tre=0x0p+00|nopipe=0` +
				`|hw=0x1.a36e2eb1c432dp-14,0x1.0624dd2f1a9fcp-10,0x1.ad7f29abcaf48p-23,0x1.ad7f29abcaf48p-25,0x1.ad7f29abcaf48p-23,0x1.421f5f40d8376p-23,0x1.421f5f40d8376p-22,0x1.ad7f29abcaf48p-23,0x1.0624dd2f1a9fcp-08,0x1.a36e2eb1c432dp-12,0x1.0624dd2f1a9fcp-08,0x1.0624dd2f1a9fcp-08,0x1.0624dd2f1a9fcp-08,0x1.0624dd2f1a9fcp-08,10"` +
				`,"cell":{"index":0,"decoder":"uf","scheme":"compact-interleaved","distance":5,"phys_rate":0.004` +
				`,"logical_rate":0.0185,"stderr":0.003013117156700018,"trials":2000,"failures":37,"skipped":1500,"dedup_hits":60,"decoder_stats":{"uf_growth_rounds":900,"uf_edge_scans":4000,"uf_peel_nodes":1200}}}`},
		{"rare", cell(rare, 32768, 70, 20000, 900, decoder.DecoderStats{UFGrowthRounds: 5000}, weighted),
			`{"key":"t|baseline|9|0x1.0624dd2f1a9fcp-10|sh=1|c2|baseline|d=9|r=9|b=Z|n=32768|s=1075513|dec=uf|cgi=0|tf=0|rare=1|boost=0x1.8p+00|tre=0x0p+00|nopipe=0` +
				`|hw=0x1.a36e2eb1c432dp-14,0x1.0624dd2f1a9fcp-10,0x1.ad7f29abcaf48p-23,0x1.ad7f29abcaf48p-25,0x1.ad7f29abcaf48p-23,0x1.421f5f40d8376p-23,0x1.421f5f40d8376p-22,0x1.ad7f29abcaf48p-23,0x1.0624dd2f1a9fcp-10,0x1.a36e2eb1c432dp-14,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,10"` +
				`,"cell":{"index":0,"decoder":"uf","scheme":"baseline","distance":9,"phys_rate":0.001` +
				`,"logical_rate":0.0002815043434088903,"stderr":0.000054321925628167854,"rel_err":0.19297011538207154,"ess":11496.927463537455,"trials":32768,"failures":70,"skipped":20000,"dedup_hits":900,"decoder_stats":{"uf_growth_rounds":5000}}}`},
		{"rare no failures", cell(rare, 32768, 0, 20000, 900, decoder.DecoderStats{UFGrowthRounds: 5000}, noFail),
			`{"key":"t|baseline|9|0x1.0624dd2f1a9fcp-10|sh=1|c2|baseline|d=9|r=9|b=Z|n=32768|s=1075513|dec=uf|cgi=0|tf=0|rare=1|boost=0x1.8p+00|tre=0x0p+00|nopipe=0` +
				`|hw=0x1.a36e2eb1c432dp-14,0x1.0624dd2f1a9fcp-10,0x1.ad7f29abcaf48p-23,0x1.ad7f29abcaf48p-25,0x1.ad7f29abcaf48p-23,0x1.421f5f40d8376p-23,0x1.421f5f40d8376p-22,0x1.ad7f29abcaf48p-23,0x1.0624dd2f1a9fcp-10,0x1.a36e2eb1c432dp-14,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,0x1.0624dd2f1a9fcp-10,10"` +
				`,"cell":{"index":0,"decoder":"uf","scheme":"baseline","distance":9,"phys_rate":0.001` +
				`,"logical_rate":0,"stderr":0,"rel_err":-1,"ess":11496.927463537455,"trials":32768,"failures":0,"skipped":20000,"dedup_hits":900,"decoder_stats":{"uf_growth_rounds":5000}}}`},
	} {
		line, err := json.Marshal(ledgerEntry{Key: cellKey(tc.r.Job, 0), Cell: canonicalRecord(cellRecord(tc.r))})
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != tc.want {
			t.Errorf("%s ledger line changed:\n got %s\nwant %s", tc.name, line, tc.want)
		}
	}
}
