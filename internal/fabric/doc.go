// Package fabric distributes sweep execution across worker processes
// without giving up the repo's determinism contract: a cluster run merges
// to bit-identical CellResults at any worker count, under any fault
// schedule. A cell planned into n shards equals montecarlo.MergeShards of
// the plan's montecarlo.Engine.RunShardOn shards, shard i on stream i; an
// unsharded cell (n == 1) equals the local scheduler's RunOn bytes.
//
// Planning — BuildUnitQueue over the job specs — is a pure function:
// montecarlo.PlanShards fixes each cell's shard plan from its trials and
// the run's ShardShots, and the cells are queued longest first by
// sched.CellCost (the local pool drains cheapest first because its idle
// workers help the costly cells at the tail; remote workers cannot). This
// package is the only place shard plans exist; the local scheduler runs
// every cell as one unit and relies on idle workers helping instead.
// Execution is leased: workers pull units, run them through
// montecarlo.Engine.RunShardOn (shard index = ChaCha8 stream index, so the
// bytes never depend on which worker runs the shard), and submit
// ShardResults. Merging is exactly-once: each unit's
// slot in its cell accumulator is written at most once, keyed by unit
// identity rather than delivery, so retries, expired-lease races, and
// resurrected workers cannot double-merge. montecarlo.MergeShards is
// order-independent, which closes the loop: any assignment of units to
// workers, in any completion order, with any amount of lease churn, merges
// to the same bytes.
//
// Fault tolerance is lease-based: a granted lease carries a TTL, workers
// heartbeat to extend it, and the Hub's janitor (plus lazy expiry in
// Lease) requeues units whose leases lapse. Heartbeats also carry
// cancellations: ReasonExpired (abort, never submit — a partial tally must
// not race the reassigned run), ReasonSettled (the cell's TargetFailures
// budget was banked by siblings; abort and submit the partial, as a shard
// that reads the banked target itself would), and ReasonCancelled (run
// cancelled; abort).
// A coordinator-side guard additionally rejects short tallies for
// fixed-trials units, so even a worker that misses its cancellation cannot
// corrupt a merge.
//
// Transports: Local for in-process workers (fabric-mode serving, tests),
// HTTPTransport + Hub.Handler for real clusters (vlqserve -fabric-listen,
// cmd/vlqworker). The faulttest subpackage wraps any Transport to inject
// worker kills, dropped responses, stalled heartbeats, and duplicate
// deliveries on deterministic schedules.
package fabric
