package fabric

import (
	"context"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// RunReference is the reference side of the fabric's determinism
// contract: each cell's shard plan under shardShots run through RunShardOn
// in index order, on one goroutine under one ShardBudget, and merged by
// MergeShards — RunOn's bytes for an unsharded cell. Exported (test-only)
// for the external-package cluster smoke test.
func RunReference(t *testing.T, jobs []sched.Job, shardShots int) []sched.CellResult {
	t.Helper()
	en := montecarlo.NewEngine()
	var st montecarlo.WorkerState
	out := make([]sched.CellResult, len(jobs))
	for i, j := range jobs {
		plan := montecarlo.PlanShards(j.Cfg.Trials, shardShots)
		var budget montecarlo.ShardBudget
		parts := make([]montecarlo.ShardResult, plan.Shards)
		for s := range parts {
			var err error
			if parts[s], err = en.RunShardOn(j.Cfg, plan, s, &budget, &st); err != nil {
				t.Fatal(err)
			}
		}
		res, err := montecarlo.MergeShards(j.Cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sched.CellResult{Index: i, Job: j, Result: res}
	}
	return out
}

// runFabric executes the jobs over an in-process fabric: one hub, n
// workers on their own goroutines with their own engines, Local transport.
func runFabric(t *testing.T, jobs []sched.Job, shardShots, workers int) []sched.CellResult {
	t.Helper()
	h := NewHub(Options{})
	defer h.Close()
	r, err := h.Submit(jobs, RunOptions{ShardShots: shardShots})
	if err != nil {
		t.Fatal(err)
	}
	c := StartCluster(workers, func(int) Transport { return Local{Hub: h} },
		func(int) WorkerOptions { return WorkerOptions{PollInterval: 2 * time.Millisecond} })
	defer func() {
		for _, err := range c.Stop() {
			t.Errorf("worker error: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// diffResults asserts two result sets are bit-identical, cell by cell.
func diffResults(t *testing.T, label string, got, want []sched.CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Fatalf("%s: cell %d has index %d", label, i, got[i].Index)
		}
		if got[i].Result != want[i].Result {
			t.Errorf("%s: cell %d diverged:\n fabric    %+v\n reference %+v",
				label, i, got[i].Result, want[i].Result)
		}
	}
}

// TestClusterMatchesLocalThresholdGrid is the headline contract: every
// cell of a threshold sweep executed over the fabric merges bit-identically
// to RunReference's index-order run of its shard plan — the local
// scheduler's RunOn bytes when unsharded — at every worker count and at
// every lease granularity.
func TestClusterMatchesLocalThresholdGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep matrix")
	}
	const trials = 2*montecarlo.MinShardShots + 137 // uneven extra split
	rates := montecarlo.DefaultPhysRates(6)[2:5]
	jobs := sched.ThresholdJobs(extract.Baseline, []int{3, 5}, rates,
		hardware.Default(), trials, 41, montecarlo.UF, montecarlo.SweepOptions{})

	for _, shardShots := range []int{0, montecarlo.MinShardShots} {
		want := RunReference(t, jobs, shardShots)
		for _, workers := range []int{1, 2, 4, 8} {
			got := runFabric(t, jobs, shardShots, workers)
			diffResults(t, labelWS(workers, shardShots), got, want)
		}
	}
}

func labelWS(workers, shardShots int) string {
	return "workers=" + itoa(workers) + " shardShots=" + itoa(shardShots)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestClusterMatchesLocalSensitivityGrid runs the same contract over a
// sensitivity-panel grid, whose cells differ only in hardware parameters —
// the sweep family Fig. 12 is built from.
func TestClusterMatchesLocalSensitivityGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep matrix")
	}
	const trials = 2 * montecarlo.MinShardShots
	jobs, err := sched.SensitivityJobs(montecarlo.PanelCavityT1, []float64{1e-4, 1e-2}, []int{3},
		trials, 53, montecarlo.UF, montecarlo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := RunReference(t, jobs, montecarlo.MinShardShots)
	for _, workers := range []int{2, 4} {
		got := runFabric(t, jobs, montecarlo.MinShardShots, workers)
		diffResults(t, labelWS(workers, montecarlo.MinShardShots), got, want)
	}
}

// TestClusterMatchesLocalRareGrid extends the contract to importance-sampled
// cells: the weighted tallies are likelihood-ratio float sums, so this leg
// pins that the fabric's shard-index merge order reproduces the reference's
// index-order floating-point association byte for byte, at every worker
// count and lease granularity.
func TestClusterMatchesLocalRareGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweep matrix")
	}
	const trials = 2*montecarlo.MinShardShots + 137
	jobs := sched.ThresholdJobs(extract.Baseline, []int{3, 5}, []float64{2e-3, 4e-3},
		hardware.Default(), trials, 41, montecarlo.UF,
		montecarlo.SweepOptions{RareEvent: true, Boost: 2})
	for _, shardShots := range []int{0, montecarlo.MinShardShots} {
		want := RunReference(t, jobs, shardShots)
		for i := range want {
			if w := want[i].Result.Weighted; w.Shots != trials || w.SumW <= 0 {
				t.Fatalf("reference cell %d carries no weighted tally: %+v", i, w)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got := runFabric(t, jobs, shardShots, workers)
			diffResults(t, "rare "+labelWS(workers, shardShots), got, want)
		}
	}
}

// TestClusterRareRelErrEarlyStop: TargetRelErr cells are timing-dependent
// by design (locally too), so the contract is semantic: the run completes,
// the pooled estimate meets the target, trials stop early, and model
// dimensions survive the merge.
func TestClusterRareRelErrEarlyStop(t *testing.T) {
	const trials = 8 * montecarlo.MinShardShots
	cfg := montecarlo.ThresholdCellConfig(extract.Baseline, 3, 1.6e-2, hardware.Default(),
		trials, 21, montecarlo.UF,
		montecarlo.SweepOptions{RareEvent: true, Boost: 1.5, TargetRelErr: 0.3})
	results := runFabric(t, []sched.Job{{Cfg: cfg}}, montecarlo.MinShardShots, 4)
	res := results[0].Result
	if res.Weighted.Estimate() <= 0 {
		t.Fatalf("no weighted estimate at d=3 p=1.6e-2 over %d trials", res.Trials)
	}
	if re := res.RelErr(); !(re <= 0.3) {
		t.Errorf("converged cell reports relative error %g, target 0.3", re)
	}
	if res.Trials <= 0 || res.Trials >= trials {
		t.Errorf("rel-err early stop did not engage: %d of %d trials taken", res.Trials, trials)
	}
	if res.Mechanisms == 0 || res.DetectorCount == 0 {
		t.Errorf("merged cell lost model dimensions: %d/%d", res.Mechanisms, res.DetectorCount)
	}
}

// TestClusterEarlyStopSemantics: TargetFailures cells are timing-dependent
// by design (locally too), so the contract is semantic: the run completes,
// the target is banked, trials stop early, and model dimensions survive
// the merge.
func TestClusterEarlyStopSemantics(t *testing.T) {
	const trials = 8 * montecarlo.MinShardShots
	cfg := montecarlo.ThresholdCellConfig(extract.Baseline, 3, 1.6e-2, hardware.Default(),
		trials, 21, montecarlo.UF, montecarlo.SweepOptions{TargetFailures: 3})
	results := runFabric(t, []sched.Job{{Cfg: cfg}}, montecarlo.MinShardShots, 4)
	res := results[0].Result
	if res.Failures < 3 {
		t.Fatalf("early-stop run banked %d failures, want >= 3", res.Failures)
	}
	if res.Trials <= 0 || res.Trials >= trials {
		t.Errorf("early stop did not engage: %d of %d trials taken", res.Trials, trials)
	}
	if res.Mechanisms == 0 || res.DetectorCount == 0 {
		t.Errorf("merged cell lost model dimensions: %d/%d", res.Mechanisms, res.DetectorCount)
	}
}

// TestHTTPTransportRoundTrip runs a small sweep through the real HTTP
// handler and transport on a loopback listener — the same wire path
// cmd/vlqworker uses — and pins it to the reference result.
func TestHTTPTransportRoundTrip(t *testing.T) {
	h := NewHub(Options{})
	defer h.Close()
	srv := newLoopbackServer(t, h.Handler())

	jobs := sched.ThresholdJobs(extract.Baseline, []int{3}, montecarlo.DefaultPhysRates(6)[3:5],
		hardware.Default(), 2*montecarlo.MinShardShots, 61, montecarlo.UF, montecarlo.SweepOptions{})
	want := RunReference(t, jobs, montecarlo.MinShardShots)

	r, err := h.Submit(jobs, RunOptions{ShardShots: montecarlo.MinShardShots})
	if err != nil {
		t.Fatal(err)
	}
	c := StartCluster(2, func(int) Transport { return &HTTPTransport{Base: srv} },
		func(int) WorkerOptions { return WorkerOptions{PollInterval: 2 * time.Millisecond} })
	defer func() {
		for _, err := range c.Stop() {
			t.Errorf("worker error: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "http workers=2", got, want)
}
