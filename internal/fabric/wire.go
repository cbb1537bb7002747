package fabric

import (
	"repro/internal/montecarlo"
)

// The fabric wire protocol: four JSON POST exchanges between a worker and
// the coordinator. Every request carries the worker id handed out by
// Register; every mutation is idempotent on the coordinator side (the
// exactly-once merge is keyed by unit, not by delivery), so workers retry
// freely on transport errors.

// RegisterRequest announces a worker to the coordinator.
// POST /fabric/v1/register.
type RegisterRequest struct {
	// Name is an optional operator-facing label (hostname, pod name);
	// the coordinator always assigns its own unique worker id.
	Name string `json:"name,omitempty"`
}

// RegisterResponse assigns the worker its id and the lease-keeping cadence.
type RegisterResponse struct {
	// Worker is the coordinator-assigned worker id, required on every
	// later request.
	Worker string `json:"worker"`
	// LeaseTTLMillis is the coordinator's lease time-to-live. A worker
	// holding a lease must heartbeat well within this interval (TTL/3 is
	// the default cadence) or the lease expires and is reassigned.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// LeaseRequest asks for the next unit of work. POST /fabric/v1/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease states returned by LeaseResponse.Status.
const (
	// StatusLease: a lease was granted; run it and submit the result.
	StatusLease = "lease"
	// StatusWait: no work is available right now; poll again.
	StatusWait = "wait"
	// StatusShutdown: the coordinator is closing; the worker should exit.
	StatusShutdown = "shutdown"
)

// LeaseResponse grants a lease, asks the worker to wait, or tells it to
// shut down.
type LeaseResponse struct {
	Status string `json:"status"`
	Lease  *Lease `json:"lease,omitempty"`
}

// Lease is one leased unit: a shard of one sweep cell, with everything a
// worker needs to execute it bit-identically on any worker — the cell
// spec, the fixed shard plan, and the shard (= ChaCha8 worker stream)
// index. The lease id is unique per grant, so a re-leased unit gets a
// fresh id and late traffic for the old one is recognizable.
type Lease struct {
	// ID identifies this grant in heartbeats and result submission.
	ID string `json:"id"`
	// Run identifies the sweep the unit belongs to.
	Run string `json:"run"`
	// Cell is the unit's cell index within the run's job slice.
	Cell int `json:"cell"`
	// Shard is the unit's shard index within the cell's plan — also the
	// seed stream index RunShardOn consumes.
	Shard int `json:"shard"`
	// Shards and Trials reconstruct the cell's montecarlo.ShardPlan, a
	// pure function of the cell spec replicated here so the worker never
	// needs the planning inputs.
	Shards int `json:"shards"`
	Trials int `json:"trials"`
	// Cfg is the full cell spec. Workers run it through
	// montecarlo.Engine.RunShardOn.
	Cfg montecarlo.Config `json:"cfg"`
	// DeadlineMillis is the lease deadline on the coordinator's clock
	// (Unix milliseconds), advisory for the worker's own pacing; the
	// heartbeat exchange is what actually extends it.
	DeadlineMillis int64 `json:"deadline_millis"`
}

// HeartbeatRequest keeps the worker's outstanding leases alive.
// POST /fabric/v1/heartbeat.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	// Leases are the lease ids the worker is still executing.
	Leases []string `json:"leases,omitempty"`
}

// Cancellation reasons carried by CancelNotice.Reason.
const (
	// ReasonExpired: the lease deadline passed and the unit was (or will
	// be) reassigned. The worker must abort and MUST NOT submit a result
	// for this lease — a partial tally from an aborted run would race the
	// reassigned full run.
	ReasonExpired = "expired"
	// ReasonSettled: the cell's early-stop target (TargetFailures banked,
	// or the pooled weighted estimate meeting TargetRelErr) was reached by
	// sibling shards. The worker should abort at the next batch boundary
	// and submit its partial tally, which still contributes trials
	// exactly as a local early-stopped shard does.
	ReasonSettled = "settled"
	// ReasonCancelled: the run was cancelled. Abort, do not submit.
	ReasonCancelled = "cancelled"
)

// CancelNotice tells a worker to stop one of its leases.
type CancelNotice struct {
	Lease  string `json:"lease"`
	Reason string `json:"reason"`
}

// HeartbeatResponse extends the listed leases and carries cancellations.
type HeartbeatResponse struct {
	Cancel []CancelNotice `json:"cancel,omitempty"`
}

// ResultRequest submits one executed lease's shard tally.
// POST /fabric/v1/result.
type ResultRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Run    string `json:"run"`
	Cell   int    `json:"cell"`
	Shard  int    `json:"shard"`
	// Result is the shard tally; zero-valued when Err is set.
	Result montecarlo.ShardResult `json:"result"`
	// Err carries a worker-side execution error (the engine rejected the
	// cell, a decode failed); the cell then completes with this error.
	Err string `json:"err,omitempty"`
}

// Submission outcomes returned by ResultResponse.Status.
const (
	// StatusAccepted: the result was merged into the cell.
	StatusAccepted = "accepted"
	// StatusDuplicate: the unit already has a result (a late duplicate
	// from an expired lease or a resurrected worker); discarded.
	StatusDuplicate = "duplicate"
	// StatusDiscarded: the run is cancelled or gone; discarded.
	StatusDiscarded = "discarded"
)

// ResultResponse acknowledges a submission.
type ResultResponse struct {
	Status string `json:"status"`
}

// Stats is a point-in-time snapshot of the coordinator's counters,
// surfaced by GET /fabric/v1/stats and the serving front end's /v1/stats.
type Stats struct {
	// Workers counts registrations since startup.
	Workers int64 `json:"workers"`
	// RunsSubmitted/RunsCompleted/RunsCancelled count sweep runs.
	RunsSubmitted int64 `json:"runs_submitted"`
	RunsCompleted int64 `json:"runs_completed"`
	RunsCancelled int64 `json:"runs_cancelled"`
	// LeasesGranted counts grants, including re-grants of expired units.
	LeasesGranted int64 `json:"leases_granted"`
	// LeasesExpired counts leases whose deadline passed without a result;
	// their units went back to the front of the queue.
	LeasesExpired int64 `json:"leases_expired"`
	// LeasesOutstanding is the current live-lease gauge.
	LeasesOutstanding int `json:"leases_outstanding"`
	// Heartbeats counts heartbeat exchanges.
	Heartbeats int64 `json:"heartbeats"`
	// ResultsAccepted counts merged shard results; ResultsDuplicate
	// counts late duplicates discarded by the exactly-once merge;
	// ResultsDiscarded counts submissions for cancelled or unknown runs.
	ResultsAccepted  int64 `json:"results_accepted"`
	ResultsDuplicate int64 `json:"results_duplicate"`
	ResultsDiscarded int64 `json:"results_discarded"`
	// UnitsSettled counts shard units settled as empty because their
	// cell's early-stop target (TargetFailures or TargetRelErr) was
	// already met.
	UnitsSettled int64 `json:"units_settled"`
}
