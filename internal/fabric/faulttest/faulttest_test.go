package faulttest

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/fabric"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

const ttl = 250 * time.Millisecond

// schedules is the fault matrix: every entry must leave the merged results
// bit-identical to the fault-free reference (runReference). Worker 2 is never killed, so
// the cluster always retains capacity to finish.
func schedules() []*Schedule {
	return []*Schedule{
		{Name: "fault-free", TTL: ttl},
		{Name: "kill-mid-lease", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: Kill},
		}},
		{Name: "kill-both-early", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: Kill},
			{Worker: 1, Op: OpSubmit, Call: 2, Fault: Kill},
		}},
		{Name: "drop-result-response", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: DropResponse},
			{Worker: 1, Op: OpSubmit, Call: 1, Fault: DropResponse},
		}},
		{Name: "drop-lease-response", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpLease, Call: 1, Fault: DropResponse},
		}},
		{Name: "stall-heartbeat-past-deadline", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpHeartbeat, Call: 1, Fault: StallHeartbeat},
		}},
		{Name: "duplicate-late-delivery", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: DuplicateDeliver},
			{Worker: 1, Op: OpSubmit, Call: 2, Fault: DuplicateDeliver},
		}},
		{Name: "expiry-race-held-submit", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: HoldSubmit},
		}},
		{Name: "chaos", TTL: ttl, Rules: []Rule{
			{Worker: 0, Op: OpSubmit, Call: 1, Fault: DropResponse},
			{Worker: 0, Op: OpSubmit, Call: 3, Fault: HoldSubmit},
			{Worker: 1, Op: OpHeartbeat, Call: 1, Fault: StallHeartbeat},
			{Worker: 1, Op: OpSubmit, Call: 2, Fault: DuplicateDeliver},
			{Worker: 0, Op: OpSubmit, Call: 5, Fault: Kill},
		}},
	}
}

// runReference is the fault-free reference: each cell's shard plan under
// shardShots run through RunShardOn in index order, on one goroutine under
// one ShardBudget, and merged by MergeShards, as a fault-free fabric run
// merges it.
func runReference(t *testing.T, jobs []sched.Job, shardShots int) []sched.CellResult {
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

// runFaulted executes the jobs over a hub with the schedule's faults
// injected into each worker's transport.
func runFaulted(t *testing.T, jobs []sched.Job, shardShots, workers int, sch *Schedule) ([]sched.CellResult, fabric.Stats) {
	t.Helper()
	h := fabric.NewHub(fabric.Options{LeaseTTL: sch.TTL})
	defer h.Close()
	r, err := h.Submit(jobs, fabric.RunOptions{ShardShots: shardShots})
	if err != nil {
		t.Fatal(err)
	}
	c := fabric.StartCluster(workers,
		func(i int) fabric.Transport { return New(fabric.Local{Hub: h}, sch, i) },
		func(int) fabric.WorkerOptions {
			return fabric.WorkerOptions{PollInterval: 2 * time.Millisecond}
		})
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := r.Wait(ctx)
	if err != nil {
		t.Fatalf("%s: %v", sch.Name, err)
	}
	return results, h.Stats()
}

// TestFaultSchedulesBitIdentical is the fault half of the fabric's
// determinism contract: a threshold grid executed under every fault
// schedule merges to exactly the reference bytes — no partial merges, no
// double merges, no lost units, whatever the lease churn.
func TestFaultSchedulesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedule matrix")
	}
	jobs := faultGrid()
	want := runReference(t, jobs, montecarlo.MinShardShots)

	for _, sch := range schedules() {
		t.Run(sch.Name, func(t *testing.T) {
			got, stats := runFaulted(t, jobs, montecarlo.MinShardShots, 3, sch)
			for i := range want {
				if got[i].Result != want[i].Result {
					t.Errorf("cell %d diverged under %s:\n fabric    %+v\n reference %+v",
						i, sch.Name, got[i].Result, want[i].Result)
				}
			}
			if stats.ResultsAccepted != int64(len(collectUnits(jobs))) {
				t.Errorf("accepted %d results, want exactly one per unit (%d)",
					stats.ResultsAccepted, len(collectUnits(jobs)))
			}
		})
	}
}

// faultGrid is the threshold grid the fault matrix runs: Baseline d=3 and
// d=5 at three rates, each cell two shards of MinShardShots.
func faultGrid() []sched.Job {
	const trials = 2*montecarlo.MinShardShots + 137
	return sched.ThresholdJobs(extract.Baseline, []int{3, 5}, montecarlo.DefaultPhysRates(6)[2:5],
		hardware.Default(), trials, 41, montecarlo.UF, montecarlo.SweepOptions{})
}

func collectUnits(jobs []sched.Job) []fabric.Unit {
	return fabric.BuildUnitQueue(jobs, montecarlo.MinShardShots).Units
}

// The fabric leases cells longest first, ties in submission order, with a
// cell's shards adjacent: on the fault grid the d=5 cells go out before
// the d=3 ones. Remote workers cannot help an unsharded cell, so the
// fabric keeps this order while the local pool drains cheapest first.
func TestUnitQueueLeasesLongestFirst(t *testing.T) {
	want := []fabric.Unit{
		{Cell: 3, Shard: 0}, {Cell: 3, Shard: 1},
		{Cell: 4, Shard: 0}, {Cell: 4, Shard: 1},
		{Cell: 5, Shard: 0}, {Cell: 5, Shard: 1},
		{Cell: 0, Shard: 0}, {Cell: 0, Shard: 1},
		{Cell: 1, Shard: 0}, {Cell: 1, Shard: 1},
		{Cell: 2, Shard: 0}, {Cell: 2, Shard: 1},
	}
	if got := collectUnits(faultGrid()); !slices.Equal(got, want) {
		t.Errorf("lease order %v, want %v", got, want)
	}
}

// TestFaultScheduleSensitivityGrid runs one representative fault schedule
// over a sensitivity-panel grid.
func TestFaultScheduleSensitivityGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedule matrix")
	}
	jobs, err := sched.SensitivityJobs(montecarlo.PanelCavityT1, []float64{1e-4, 1e-2}, []int{3},
		2*montecarlo.MinShardShots, 53, montecarlo.UF, montecarlo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := runReference(t, jobs, montecarlo.MinShardShots)
	sch := &Schedule{Name: "kill+duplicate", TTL: ttl, Rules: []Rule{
		{Worker: 0, Op: OpSubmit, Call: 1, Fault: Kill},
		{Worker: 1, Op: OpSubmit, Call: 1, Fault: DuplicateDeliver},
	}}
	got, _ := runFaulted(t, jobs, montecarlo.MinShardShots, 3, sch)
	for i := range want {
		if got[i].Result != want[i].Result {
			t.Errorf("cell %d diverged:\n fabric    %+v\n reference %+v", i, got[i].Result, want[i].Result)
		}
	}
}

// TestFaultScheduleRareGrid is the importance-sampled leg of the fault
// contract: weighted cells carry likelihood-ratio float sums, so a retried
// or duplicated shard that slipped into the merge twice would shift the
// sums even when integer failure counts happen to agree. Every schedule in
// the matrix must leave the weighted tallies bit-identical to the fault-free
// reference.
func TestFaultScheduleRareGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedule matrix")
	}
	const trials = 2*montecarlo.MinShardShots + 137
	jobs := sched.ThresholdJobs(extract.Baseline, []int{3, 5}, []float64{2e-3, 4e-3},
		hardware.Default(), trials, 41, montecarlo.UF,
		montecarlo.SweepOptions{RareEvent: true, Boost: 2})
	want := runReference(t, jobs, montecarlo.MinShardShots)
	for i := range want {
		if w := want[i].Result.Weighted; w.Shots != trials || w.SumW <= 0 {
			t.Fatalf("reference cell %d carries no weighted tally: %+v", i, w)
		}
	}
	for _, sch := range schedules() {
		t.Run(sch.Name, func(t *testing.T) {
			got, _ := runFaulted(t, jobs, montecarlo.MinShardShots, 3, sch)
			for i := range want {
				if got[i].Result != want[i].Result {
					t.Errorf("cell %d diverged under %s:\n fabric    %+v\n reference %+v",
						i, sch.Name, got[i].Result, want[i].Result)
				}
			}
		})
	}
}

// TestDuplicateAndDropCountersObserved pins that the schedules actually
// exercised the paths they claim: a dropped result response forces a retry
// that the exactly-once merge must flag as duplicate.
func TestDuplicateAndDropCountersObserved(t *testing.T) {
	jobs := sched.ThresholdJobs(extract.Baseline, []int{3}, montecarlo.DefaultPhysRates(6)[3:4],
		hardware.Default(), 2*montecarlo.MinShardShots, 41, montecarlo.UF, montecarlo.SweepOptions{})
	sch := &Schedule{Name: "drop", TTL: ttl, Rules: []Rule{
		{Worker: 0, Op: OpSubmit, Call: 1, Fault: DropResponse},
	}}
	_, stats := runFaulted(t, jobs, montecarlo.MinShardShots, 1, sch)
	if stats.ResultsDuplicate == 0 {
		t.Errorf("dropped response produced no duplicate retry (stats %+v)", stats)
	}
}

// goldenCell mirrors the montecarlo package's committed fixture rows.
type goldenCell struct {
	Scheme   string  `json:"scheme"`
	Distance int     `json:"distance"`
	PhysRate float64 `json:"phys_rate"`
	Decoder  string  `json:"decoder"`
	Trials   int     `json:"trials"`
	Failures int     `json:"failures"`
}

// TestGoldenRatesThroughFaultedFabric is the distributed leg of the golden
// harness: the committed Fig. 11 row recomputed through a 3-worker
// in-process fabric — with one worker killed mid-run — must reproduce the
// pinned trials/failures of every cell. A scheduling or merge change that
// leaks timing into results moves pinned numbers and fails tier 1.
func TestGoldenRatesThroughFaultedFabric(t *testing.T) {
	buf, err := os.ReadFile("../../montecarlo/testdata/golden_rates.json")
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}

	const seed = 17
	var jobs []sched.Job
	type ident struct {
		d   int
		p   float64
		dec string
	}
	var ids []ident
	for _, dec := range []montecarlo.DecoderKind{montecarlo.UF, montecarlo.Blossom} {
		for _, d := range []int{3, 5, 7} {
			for _, p := range montecarlo.DefaultPhysRates(6) {
				cfg := montecarlo.ThresholdCellConfig(extract.CompactInterleaved, d, p,
					hardware.Default(), 250, seed, dec, montecarlo.SweepOptions{})
				jobs = append(jobs, sched.Job{Cfg: cfg})
				ids = append(ids, ident{d: d, p: p, dec: string(dec)})
			}
		}
	}
	if len(jobs) != len(want) {
		t.Fatalf("built %d cells, fixture has %d", len(jobs), len(want))
	}

	sch := &Schedule{Name: "golden-kill", TTL: ttl, Rules: []Rule{
		{Worker: 1, Op: OpSubmit, Call: 3, Fault: Kill},
	}}
	// ShardShots 1 is the most aggressive split a caller can request; the
	// 250-trial cells sit below the MinShardShots floor, so each cell must
	// still lease as exactly one unit.
	got, stats := runFaulted(t, jobs, 1, 3, sch)
	if stats.LeasesExpired == 0 {
		t.Errorf("killed worker's lease never expired (stats %+v); the kill did not land mid-lease", stats)
	}
	for i, w := range want {
		g := got[i]
		if ids[i].d != w.Distance || ids[i].dec != w.Decoder ||
			math.Abs(ids[i].p-w.PhysRate) > 1e-12*(1+w.PhysRate) {
			t.Fatalf("cell %d identity drifted: fixture %+v vs grid %+v", i, w, ids[i])
		}
		if g.Result.Trials != w.Trials || g.Result.Failures != w.Failures {
			t.Errorf("cell %d (d=%d p=%.4g %s): fabric %d/%d failures/trials, fixture %d/%d",
				i, w.Distance, w.PhysRate, w.Decoder,
				g.Result.Failures, g.Result.Trials, w.Failures, w.Trials)
		}
	}
}
