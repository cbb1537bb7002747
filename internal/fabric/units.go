package fabric

import (
	"cmp"
	"slices"

	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// Unit is one leaseable quantum of work: shard Shard of cell Cell, where
// Cell indexes the submitted job slice. An unsharded cell is a single unit
// with Shard 0.
type Unit struct {
	Cell  int
	Shard int
}

// UnitQueue is the fixed execution plan of one fabric run: per-cell shard
// plans and the flat, ordered queue of units the coordinator leases.
type UnitQueue struct {
	// Plans holds each cell's shard plan, indexed like the job slice.
	Plans []montecarlo.ShardPlan
	// Units is the lease order: cells longest first by sched.CellCost,
	// ties in submission order, a sharded cell's units adjacent so its
	// shards fan out immediately.
	Units []Unit
}

// BuildUnitQueue fixes the execution plan for a run. The plan is a pure
// function of the job specs and shardShots — never of worker
// count or any runtime state — which is what makes results reproducible
// across any execution of the queue: same jobs + same shardShots => same
// plans (montecarlo.PlanShards) => same per-shard ChaCha8 streams. A cell
// planned into n shards equals montecarlo.MergeShards of the plan's
// RunShardOn shards, shard i on stream i (RunOn's bytes when n is 1).
//
// Cells lease longest first, unlike the local pool's cheapest-first
// sched.DrainOrder: a remote worker cannot help decode another worker's
// unsharded cell, so a big cell leased last would finish alone while the
// rest of the cluster idles.
func BuildUnitQueue(jobs []sched.Job, shardShots int) UnitQueue {
	q := UnitQueue{Plans: make([]montecarlo.ShardPlan, len(jobs))}
	nunits := 0
	for i, job := range jobs {
		q.Plans[i] = montecarlo.PlanShards(job.Cfg.Trials, shardShots)
		nunits += q.Plans[i].Shards
	}
	cells := make([]int, len(jobs))
	for i := range cells {
		cells[i] = i
	}
	slices.SortStableFunc(cells, func(a, b int) int {
		return cmp.Compare(sched.CellCost(jobs[b].Cfg), sched.CellCost(jobs[a].Cfg))
	})
	q.Units = make([]Unit, 0, nunits)
	for _, ci := range cells {
		for sh := 0; sh < q.Plans[ci].Shards; sh++ {
			q.Units = append(q.Units, Unit{Cell: ci, Shard: sh})
		}
	}
	return q
}
