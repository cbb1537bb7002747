package fabric

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// fakeClock drives Options.Now for protocol tests (NoJanitor; expiry is
// forced explicitly with Hub.Expire).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func protoConfig(trials int) montecarlo.Config {
	return montecarlo.Config{
		Scheme: extract.Baseline, Distance: 3, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(8e-3), Trials: trials, Seed: 7,
	}
}

// protoHub returns a hub under a fake clock plus a 4-shard single-cell run.
func protoHub(t *testing.T, cfg montecarlo.Config) (*Hub, *fakeClock, *Run) {
	t.Helper()
	clk := newFakeClock()
	h := NewHub(Options{LeaseTTL: time.Second, Now: clk.Now, NoJanitor: true})
	t.Cleanup(h.Close)
	r, err := h.Submit([]sched.Job{{Cfg: cfg}}, RunOptions{ShardShots: 1})
	if err != nil {
		t.Fatal(err)
	}
	return h, clk, r
}

func mustLease(t *testing.T, h *Hub, worker string) *Lease {
	t.Helper()
	resp, err := h.Lease(LeaseRequest{Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusLease {
		t.Fatalf("Lease status %q, want %q", resp.Status, StatusLease)
	}
	return resp.Lease
}

func fullResult(l *Lease) ResultRequest {
	trials := montecarlo.ShardPlan{Shards: l.Shards, Trials: l.Trials}.ShardTrials(l.Shard)
	return ResultRequest{
		Worker: "w", Lease: l.ID, Run: l.Run, Cell: l.Cell, Shard: l.Shard,
		Result: montecarlo.ShardResult{
			Shard: l.Shard, Counts: montecarlo.Counts{Trials: trials, Failures: 1},
			Mechanisms: 10, DetectorCount: 20,
		},
	}
}

func TestLeaseExpiryReassignsAndFirstSubmissionWins(t *testing.T) {
	cfg := protoConfig(4 * montecarlo.MinShardShots)
	h, clk, r := protoHub(t, cfg)

	l0 := mustLease(t, h, "w1")
	if l0.Shards != 4 || l0.Cfg != cfg {
		t.Fatalf("lease %+v does not carry the 4-shard plan for the cell", l0)
	}

	// Heartbeats extend the deadline past the original TTL.
	clk.Advance(600 * time.Millisecond)
	if _, err := h.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []string{l0.ID}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(600 * time.Millisecond) // 1.2s total: past TTL, within extension
	h.Expire()
	if n := h.Stats().LeasesExpired; n != 0 {
		t.Fatalf("heartbeated lease expired (%d)", n)
	}

	// Without further heartbeats the lease lapses and the unit is re-leased
	// under a fresh id — at the front of the queue, so w2 gets shard 0.
	clk.Advance(1100 * time.Millisecond)
	h.Expire()
	if n := h.Stats().LeasesExpired; n != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", n)
	}
	l1 := mustLease(t, h, "w2")
	if l1.Cell != l0.Cell || l1.Shard != l0.Shard {
		t.Fatalf("re-lease got unit (%d,%d), want (%d,%d)", l1.Cell, l1.Shard, l0.Cell, l0.Shard)
	}
	if l1.ID == l0.ID {
		t.Fatal("re-lease reused the lease id")
	}

	// The expired worker heartbeats late: told the lease is gone.
	hb, _ := h.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []string{l0.ID}})
	if len(hb.Cancel) != 1 || hb.Cancel[0].Reason != ReasonExpired {
		t.Fatalf("late heartbeat got %+v, want ReasonExpired cancel", hb.Cancel)
	}

	// w2 submits a full tally first: accepted. The resurrected w1's full
	// tally for the same unit is a duplicate — never double-merged.
	req := fullResult(l1)
	resp, _ := h.Result(req)
	if resp.Status != StatusAccepted {
		t.Fatalf("first submission %q, want accepted", resp.Status)
	}
	late := fullResult(l0)
	late.Result.Failures = 99 // would corrupt the tally if merged
	resp, _ = h.Result(late)
	if resp.Status != StatusDuplicate {
		t.Fatalf("late duplicate %q, want duplicate", resp.Status)
	}
	st := h.Stats()
	if st.ResultsAccepted != 1 || st.ResultsDuplicate != 1 {
		t.Fatalf("stats %+v, want 1 accepted / 1 duplicate", st)
	}
	_ = r
}

func TestPartialTallyFromFixedTrialsShardRejected(t *testing.T) {
	cfg := protoConfig(4 * montecarlo.MinShardShots)
	h, _, _ := protoHub(t, cfg)

	l := mustLease(t, h, "w1")
	short := fullResult(l)
	short.Result.Trials-- // aborted mid-shard: tally is short
	resp, _ := h.Result(short)
	if resp.Status != StatusDiscarded {
		t.Fatalf("short tally %q, want discarded", resp.Status)
	}
	if n := h.Stats().ResultsDiscarded; n != 1 {
		t.Fatalf("ResultsDiscarded = %d, want 1", n)
	}
	// The unit went back to the queue front and is leased again fresh.
	l2 := mustLease(t, h, "w1")
	if l2.Cell != l.Cell || l2.Shard != l.Shard || l2.ID == l.ID {
		t.Fatalf("after rejection got lease %+v, want same unit under fresh id", l2)
	}
	resp, _ = h.Result(fullResult(l2))
	if resp.Status != StatusAccepted {
		t.Fatalf("full re-run tally %q, want accepted", resp.Status)
	}
}

func TestBankedTargetSettlesSiblings(t *testing.T) {
	cfg := protoConfig(4 * montecarlo.MinShardShots)
	cfg.TargetFailures = 2
	h, _, r := protoHub(t, cfg)

	l0 := mustLease(t, h, "w1")
	l1 := mustLease(t, h, "w2")

	// Shard 0 banks the full target. The two never-leased units settle as
	// empty shards; w2's outstanding lease is told ReasonSettled.
	req := fullResult(l0)
	req.Result.Trials = 100 // early stop: partial tallies are the norm here
	req.Result.Failures = 2
	if resp, _ := h.Result(req); resp.Status != StatusAccepted {
		t.Fatalf("banking submission not accepted: %q", resp.Status)
	}
	if n := h.Stats().UnitsSettled; n != 2 {
		t.Fatalf("UnitsSettled = %d, want 2 (the pending siblings)", n)
	}
	hb, _ := h.Heartbeat(HeartbeatRequest{Worker: "w2", Leases: []string{l1.ID}})
	if len(hb.Cancel) != 1 || hb.Cancel[0].Reason != ReasonSettled {
		t.Fatalf("leased sibling got %+v, want ReasonSettled", hb.Cancel)
	}
	// w2 aborts at its batch boundary and submits the partial: accepted,
	// and the cell merges.
	part := fullResult(l1)
	part.Result.Trials = 64
	part.Result.Failures = 0
	if resp, _ := h.Result(part); resp.Status != StatusAccepted {
		t.Fatalf("settled partial not accepted: %q", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	results, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Result; got.Trials != 164 || got.Failures != 2 {
		t.Fatalf("merged %d trials / %d failures, want 164 / 2", got.Trials, got.Failures)
	}
}

func TestShardErrorDoomsCellButRunCompletes(t *testing.T) {
	cfg := protoConfig(4 * montecarlo.MinShardShots)
	h, _, r := protoHub(t, cfg)
	var emitted []sched.CellResult
	r.opts.OnResult = func(res sched.CellResult) { emitted = append(emitted, res) }

	l := mustLease(t, h, "w1")
	req := fullResult(l)
	req.Result = montecarlo.ShardResult{Shard: l.Shard}
	req.Err = "graph build exploded"
	if resp, _ := h.Result(req); resp.Status != StatusAccepted {
		t.Fatalf("error submission %q, want accepted", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	results, err := r.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "graph build exploded") {
		t.Fatalf("Wait err = %v, want the shard error", err)
	}
	if results[0].Err == nil {
		t.Fatal("cell result does not carry the error")
	}
	if len(emitted) != 1 || emitted[0].Err == nil {
		t.Fatalf("OnResult emissions %+v, want one errored cell", emitted)
	}
	// No further work remains.
	if resp, _ := h.Lease(LeaseRequest{Worker: "w1"}); resp.Status != StatusWait {
		t.Fatalf("post-error lease %q, want wait", resp.Status)
	}
}

func TestCancelRunDropsOutstandingWork(t *testing.T) {
	cfg := protoConfig(4 * montecarlo.MinShardShots)
	h, _, r := protoHub(t, cfg)

	l := mustLease(t, h, "w1")
	r.Cancel()

	hb, _ := h.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []string{l.ID}})
	if len(hb.Cancel) != 1 || hb.Cancel[0].Reason != ReasonCancelled {
		t.Fatalf("heartbeat after cancel got %+v, want ReasonCancelled", hb.Cancel)
	}
	if resp, _ := h.Result(fullResult(l)); resp.Status != StatusDiscarded {
		t.Fatalf("submit after cancel %q, want discarded", resp.Status)
	}
	if resp, _ := h.Lease(LeaseRequest{Worker: "w1"}); resp.Status != StatusWait {
		t.Fatalf("lease after cancel %q, want wait", resp.Status)
	}
	ctx := context.Background()
	if _, err := r.Wait(ctx); err == nil {
		t.Fatal("Wait on cancelled run returned nil error")
	}
	st := h.Stats()
	if st.RunsCancelled != 1 || st.ResultsDiscarded != 1 {
		t.Fatalf("stats %+v, want 1 cancelled run, 1 discarded result", st)
	}
}

func TestHubCloseTellsWorkersToShutDown(t *testing.T) {
	clk := newFakeClock()
	h := NewHub(Options{LeaseTTL: time.Second, Now: clk.Now, NoJanitor: true})
	if _, err := h.Register(RegisterRequest{}); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if resp, _ := h.Lease(LeaseRequest{Worker: "w-0001"}); resp.Status != StatusShutdown {
		t.Fatalf("lease after close %q, want shutdown", resp.Status)
	}
	if _, err := h.Submit([]sched.Job{{Cfg: protoConfig(100)}}, RunOptions{}); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

func TestMultiRunLeasingDrainsSubmissionOrder(t *testing.T) {
	clk := newFakeClock()
	h := NewHub(Options{LeaseTTL: time.Second, Now: clk.Now, NoJanitor: true})
	t.Cleanup(h.Close)
	r1, err := h.Submit([]sched.Job{{Cfg: protoConfig(100)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Submit([]sched.Job{{Cfg: protoConfig(100)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, h, "w1")
	if l.Run != r1.ID() {
		t.Fatalf("first lease from run %s, want %s (submission order)", l.Run, r1.ID())
	}
	l2 := mustLease(t, h, "w1")
	if l2.Run != r2.ID() {
		t.Fatalf("second lease from run %s, want %s", l2.Run, r2.ID())
	}
}

// Wait must not return before the run's last cell has been delivered to
// OnResult: a caller that reads its own OnResult state after Wait (serve's
// fabric mode marks cells completed there) would otherwise race with the
// delivery, and re-run a cell it thinks unfinished.
func TestWaitReturnsAfterLastCellDelivered(t *testing.T) {
	h, _, r := protoHub(t, protoConfig(montecarlo.MinShardShots))
	release := make(chan struct{})
	delivered := false
	r.opts.OnResult = func(sched.CellResult) {
		<-release
		delivered = true
	}
	l := mustLease(t, h, "w1")
	waited := make(chan struct{})
	go func() {
		r.Wait(context.Background())
		close(waited)
	}()
	go h.Result(fullResult(l))

	select {
	case <-waited:
		t.Fatal("Wait returned while the last cell's OnResult was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the last cell was delivered")
	}
	if !delivered {
		t.Fatal("Wait returned before OnResult finished")
	}
}
