package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// DefaultLeaseTTL is the lease time-to-live when Options.LeaseTTL is zero:
// long enough that a worker heartbeating at TTL/3 survives scheduling
// hiccups, short enough that a lost worker's units are reassigned quickly.
const DefaultLeaseTTL = 10 * time.Second

// Options tunes a Hub.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before it expires and its unit is reassigned (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// NoJanitor disables the background expiry goroutine; expiry then
	// happens only lazily, inside Lease and Expire calls. Tests that want
	// full control over when leases expire set this.
	NoJanitor bool
}

// RunOptions tunes one submitted sweep run.
type RunOptions struct {
	// ShardShots splits cells into leaseable shard units of ~this many
	// trials (montecarlo.PlanShards: 0 keeps every cell whole, positive
	// values below montecarlo.MinShardShots are raised to that floor); the
	// unit queue is BuildUnitQueue(jobs, ShardShots). A cell of n
	// shards equals montecarlo.MergeShards of the plan's RunShardOn
	// shards, shard i on stream i, so an unsharded run reproduces the
	// local scheduler's bytes.
	ShardShots int
	// OnResult, when set, is called once per cell as its last shard
	// merges, in completion order; calls are serialized per run. Error
	// cells are delivered too; cells of a cancelled run are never
	// delivered partially merged.
	OnResult func(sched.CellResult)
}

// Unit states in run.ustate.
const (
	unitPending = iota
	unitLeased
	unitDone
)

// lease is one live grant.
type lease struct {
	id       string
	worker   string
	run      *Run
	unit     int // index into run.q.Units
	deadline time.Time
	// cancelReason, when non-empty, is delivered on the worker's next
	// heartbeat (ReasonSettled, ReasonCancelled).
	cancelReason string
}

// cellAcc accumulates one cell's shards exactly once: a unit's slot is
// written at most once, so a late duplicate from an expired lease or a
// resurrected worker cannot double-merge.
type cellAcc struct {
	plan      montecarlo.ShardPlan
	remaining int
	parts     []montecarlo.ShardResult  // by shard index
	errs      []string                  // by shard index
	banked    int64                     // failures toward TargetFailures
	wbank     montecarlo.WeightedResult // pooled weighted tallies toward TargetRelErr
	settled   bool                      // target banked; outstanding work is cancelled
	completed bool                      // final merge done; guards nested settles
}

// Run is one sweep executing over the fabric.
type Run struct {
	id   string
	hub  *Hub
	jobs []sched.Job
	q    UnitQueue
	opts RunOptions

	// Guarded by hub.mu.
	pending   []int    // unit indices awaiting a lease, front first
	ustate    []uint8  // per unit index
	ulease    []string // current lease id per unit (while leased)
	unitIndex map[Unit]int
	cells     []*cellAcc
	completed int
	cancelled bool
	finished  bool
	results   []sched.CellResult

	emitMu    sync.Mutex // serializes OnResult
	delivered int        // cells passed to OnResult; guarded by emitMu
	done      chan struct{}
}

// Hub is the fabric coordinator: it leases sweep shard units to registered
// workers, expires leases whose heartbeats stall, reassigns their units,
// and merges the returned ShardResults exactly once per unit — so each
// merged CellResult is bit-identical to montecarlo.MergeShards of the
// cell's RunShardOn shards, shard i on stream i, at any worker count,
// under any fault schedule. One Hub serves many runs over its lifetime
// (the serving front end submits each fabric-mode sweep to the process's
// hub); leases are drawn from runs in submission order, units within a
// run longest first (BuildUnitQueue).
type Hub struct {
	opts Options
	ttl  time.Duration
	now  func() time.Time

	mu        sync.Mutex
	closed    bool
	runs      map[string]*Run
	active    []*Run // submission order; finished/cancelled runs removed
	leases    map[string]*lease
	nextRun   int
	nextLease int
	nextWkr   int
	stats     Stats

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewHub returns a coordinator ready to accept runs and workers.
func NewHub(opts Options) *Hub {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	h := &Hub{
		opts:   opts,
		ttl:    opts.LeaseTTL,
		now:    now,
		runs:   make(map[string]*Run),
		leases: make(map[string]*lease),
	}
	if !opts.NoJanitor {
		h.janitorStop = make(chan struct{})
		h.janitorDone = make(chan struct{})
		go h.janitor()
	}
	return h
}

// janitor expires overdue leases in the background, so units held by dead
// workers are reassigned even when no live worker is polling for leases.
func (h *Hub) janitor() {
	defer close(h.janitorDone)
	period := h.ttl / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-h.janitorStop:
			return
		case <-t.C:
			h.Expire()
		}
	}
}

// Close shuts the hub down: workers polling for leases are told to exit,
// outstanding runs are cancelled, and the janitor stops.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	active := append([]*Run(nil), h.active...)
	h.mu.Unlock()
	for _, r := range active {
		r.Cancel()
	}
	if h.janitorStop != nil {
		close(h.janitorStop)
		<-h.janitorDone
	}
}

// Stats returns a snapshot of the coordinator's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	s.LeasesOutstanding = len(h.leases)
	return s
}

// Submit plans the jobs into a unit queue and opens the run for leasing.
// The plan is a pure function of (jobs, ShardShots), which is the
// root of the fabric's determinism contract.
func (h *Hub) Submit(jobs []sched.Job, opts RunOptions) (*Run, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fabric: empty job list")
	}
	q := BuildUnitQueue(jobs, opts.ShardShots)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("fabric: hub closed")
	}
	h.nextRun++
	r := &Run{
		id:        fmt.Sprintf("run-%06d", h.nextRun),
		hub:       h,
		jobs:      jobs,
		q:         q,
		opts:      opts,
		ustate:    make([]uint8, len(q.Units)),
		ulease:    make([]string, len(q.Units)),
		unitIndex: make(map[Unit]int, len(q.Units)),
		cells:     make([]*cellAcc, len(jobs)),
		results:   make([]sched.CellResult, len(jobs)),
		done:      make(chan struct{}),
	}
	for i, job := range jobs {
		plan := q.Plans[i]
		r.cells[i] = &cellAcc{
			plan:      plan,
			remaining: plan.Shards,
			parts:     make([]montecarlo.ShardResult, plan.Shards),
			errs:      make([]string, plan.Shards),
		}
		r.results[i] = sched.CellResult{Index: i, Job: job}
	}
	r.pending = make([]int, len(q.Units))
	for k, u := range q.Units {
		r.pending[k] = k
		r.unitIndex[u] = k
	}
	h.runs[r.id] = r
	h.active = append(h.active, r)
	h.stats.RunsSubmitted++
	return r, nil
}

// Register assigns a worker id.
func (h *Hub) Register(req RegisterRequest) (RegisterResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return RegisterResponse{}, fmt.Errorf("fabric: hub closed")
	}
	h.nextWkr++
	h.stats.Workers++
	return RegisterResponse{
		Worker:         fmt.Sprintf("w-%04d", h.nextWkr),
		LeaseTTLMillis: h.ttl.Milliseconds(),
	}, nil
}

// Expire retires every lease whose deadline has passed, returning its unit
// to the front of its run's queue for reassignment. Called by the janitor
// and lazily by Lease; exported so tests driving a manual clock can force
// an expiry sweep.
func (h *Hub) Expire() {
	h.mu.Lock()
	h.expireLocked(h.now())
	h.mu.Unlock()
}

func (h *Hub) expireLocked(now time.Time) {
	for id, l := range h.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(h.leases, id)
		h.stats.LeasesExpired++
		r := l.run
		if r.finished || r.cancelled {
			continue
		}
		k := l.unit
		if r.ustate[k] == unitLeased && r.ulease[k] == id {
			// Requeue at the front: a reassigned unit is the run's oldest
			// outstanding work, so it outranks never-leased units.
			r.ustate[k] = unitPending
			r.ulease[k] = ""
			r.pending = append([]int{k}, r.pending...)
		}
	}
}

// Lease grants the next available unit to the worker, settling
// banked-target units as empty along the way: a cell whose sibling shards
// banked its early-stop target spawns no more decode work.
func (h *Hub) Lease(req LeaseRequest) (LeaseResponse, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return LeaseResponse{Status: StatusShutdown}, nil
	}
	now := h.now()
	h.expireLocked(now)
	var emits []emission
	var granted *Lease
	for _, r := range h.active {
		if r.cancelled || r.finished {
			continue
		}
		for len(r.pending) > 0 {
			k := r.pending[0]
			r.pending = r.pending[1:]
			if r.ustate[k] != unitPending {
				continue
			}
			u := r.q.Units[k]
			cell := r.cells[u.Cell]
			cfg := r.jobs[u.Cell].Cfg
			if tf := cfg.TargetFailures; tf > 0 && cell.banked >= int64(tf) {
				// Sibling shards already banked the cell's failure target;
				// settle this unit as an empty shard without leasing it.
				h.stats.UnitsSettled++
				emits = append(emits, h.recordUnitLocked(r, k, montecarlo.ShardResult{Shard: u.Shard}, "")...)
				continue
			}
			if re := cfg.TargetRelErr; re > 0 && cell.wbank.RelErrMet(re) {
				// The pooled weighted estimate already meets the cell's
				// relative-error target — the rel-err sibling of the
				// banked-failures settle above.
				h.stats.UnitsSettled++
				emits = append(emits, h.recordUnitLocked(r, k, montecarlo.ShardResult{Shard: u.Shard}, "")...)
				continue
			}
			h.nextLease++
			id := fmt.Sprintf("L-%08d", h.nextLease)
			l := &lease{id: id, worker: req.Worker, run: r, unit: k, deadline: now.Add(h.ttl)}
			h.leases[id] = l
			r.ustate[k] = unitLeased
			r.ulease[k] = id
			h.stats.LeasesGranted++
			granted = &Lease{
				ID:             id,
				Run:            r.id,
				Cell:           u.Cell,
				Shard:          u.Shard,
				Shards:         cell.plan.Shards,
				Trials:         cell.plan.Trials,
				Cfg:            cfg,
				DeadlineMillis: l.deadline.UnixMilli(),
			}
			break
		}
		if granted != nil {
			break
		}
	}
	h.mu.Unlock()
	emitAll(emits)
	if granted == nil {
		return LeaseResponse{Status: StatusWait}, nil
	}
	return LeaseResponse{Status: StatusLease, Lease: granted}, nil
}

// Heartbeat extends the worker's live leases and delivers cancellations:
// leases the hub no longer recognizes report ReasonExpired (abort, do not
// submit), leases whose cell or run was stopped report their recorded
// reason.
func (h *Hub) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Heartbeats++
	now := h.now()
	var resp HeartbeatResponse
	for _, id := range req.Leases {
		l := h.leases[id]
		switch {
		case l == nil || l.worker != req.Worker:
			resp.Cancel = append(resp.Cancel, CancelNotice{Lease: id, Reason: ReasonExpired})
		case l.cancelReason != "":
			resp.Cancel = append(resp.Cancel, CancelNotice{Lease: id, Reason: l.cancelReason})
		default:
			l.deadline = now.Add(h.ttl)
		}
	}
	return resp, nil
}

// Result merges one submitted shard tally, exactly once per unit: the
// first complete submission for a unit wins, later ones are discarded as
// duplicates — whether they come from a retried delivery, an expired lease
// racing its replacement, or a resurrected worker.
func (h *Hub) Result(req ResultRequest) (ResultResponse, error) {
	h.mu.Lock()
	r := h.runs[req.Run]
	if r == nil || r.cancelled {
		h.stats.ResultsDiscarded++
		h.mu.Unlock()
		return ResultResponse{Status: StatusDiscarded}, nil
	}
	k, ok := r.unitIndex[Unit{Cell: req.Cell, Shard: req.Shard}]
	if !ok {
		h.stats.ResultsDiscarded++
		h.mu.Unlock()
		return ResultResponse{Status: StatusDiscarded}, nil
	}
	if r.ustate[k] == unitDone {
		h.stats.ResultsDuplicate++
		if l := h.leases[req.Lease]; l != nil && l.run == r && l.unit == k {
			delete(h.leases, req.Lease)
		}
		h.mu.Unlock()
		return ResultResponse{Status: StatusDuplicate}, nil
	}
	// Partial-tally guard: a fixed-trials shard must account for its full
	// allotment. A short tally can only come from an abort the worker was
	// told not to submit (expired or cancelled lease); merging it would
	// break bit-identity, so reject it and let the unit be re-run.
	cell := r.cells[req.Cell]
	cfg := r.jobs[req.Cell].Cfg
	if req.Err == "" && cfg.TargetFailures == 0 && cfg.TargetRelErr == 0 && req.Result.Trials != cell.plan.ShardTrials(req.Shard) {
		h.stats.ResultsDiscarded++
		h.requeueUnitLocked(r, k, req.Lease)
		h.mu.Unlock()
		return ResultResponse{Status: StatusDiscarded}, nil
	}
	if l := h.leases[req.Lease]; l != nil && l.run == r && l.unit == k {
		delete(h.leases, req.Lease)
	}
	if cur := r.ulease[k]; cur != "" && cur != req.Lease {
		// A different (reassigned) lease is still running this unit; tell
		// that worker to abort and not submit — its late duplicate would be
		// discarded anyway.
		if l := h.leases[cur]; l != nil {
			l.cancelReason = ReasonExpired
		}
	}
	h.stats.ResultsAccepted++
	emits := h.recordUnitLocked(r, k, req.Result, req.Err)
	h.mu.Unlock()
	emitAll(emits)
	return ResultResponse{Status: StatusAccepted}, nil
}

// requeueUnitLocked returns a leased unit to the front of the queue after
// its submission was rejected, dropping the rejected lease.
func (h *Hub) requeueUnitLocked(r *Run, k int, leaseID string) {
	if l := h.leases[leaseID]; l != nil && l.run == r && l.unit == k {
		delete(h.leases, leaseID)
	}
	if r.ustate[k] == unitLeased && r.ulease[k] == leaseID {
		r.ustate[k] = unitPending
		r.ulease[k] = ""
		r.pending = append([]int{k}, r.pending...)
	}
}

// emission is one completed cell to deliver to a run's OnResult after the
// hub lock is released.
type emission struct {
	run *Run
	res sched.CellResult
}

// emitAll delivers completed cells. A finished run's done channel closes
// only once its last cell has been delivered, so a caller returning from
// Wait has seen every OnResult call — whichever goroutines' emissions
// complete the run, and in whatever order they deliver.
func emitAll(emits []emission) {
	for _, e := range emits {
		r := e.run
		r.emitMu.Lock()
		if r.opts.OnResult != nil {
			r.opts.OnResult(e.res)
		}
		r.delivered++
		if r.delivered == len(r.jobs) {
			close(r.done)
		}
		r.emitMu.Unlock()
	}
}

// recordUnitLocked writes one unit's outcome — exactly once — and drives
// the downstream consequences: banking failures toward the cell's
// early-stop target (settling sibling units when it is reached), merging
// the cell when its last unit lands, failing the whole cell on a shard
// error, and finishing the run when its last cell completes. Returns the
// cells completed by this record, for emission outside the lock.
func (h *Hub) recordUnitLocked(r *Run, k int, sr montecarlo.ShardResult, errMsg string) []emission {
	u := r.q.Units[k]
	cell := r.cells[u.Cell]
	if r.ustate[k] == unitDone {
		return nil
	}
	r.ustate[k] = unitDone
	r.ulease[k] = ""
	cell.parts[u.Shard] = sr
	cell.errs[u.Shard] = errMsg
	cell.remaining--

	var emits []emission
	cfg := r.jobs[u.Cell].Cfg
	if tf := cfg.TargetFailures; tf > 0 && errMsg == "" {
		cell.banked += int64(sr.Failures)
		if cell.banked >= int64(tf) && !cell.settled {
			cell.settled = true
			emits = append(emits, h.cancelCellLocked(r, u.Cell, ReasonSettled, false)...)
		}
	}
	if re := cfg.TargetRelErr; re > 0 && errMsg == "" {
		cell.wbank.Add(sr.Weighted)
		if cell.wbank.RelErrMet(re) && !cell.settled {
			cell.settled = true
			emits = append(emits, h.cancelCellLocked(r, u.Cell, ReasonSettled, false)...)
		}
	}
	if errMsg != "" && cell.remaining > 0 {
		// A failed shard dooms the cell: settle its remaining units as
		// empty so the cell (and run) still completes, carrying the error.
		emits = append(emits, h.cancelCellLocked(r, u.Cell, ReasonCancelled, true)...)
	}
	if cell.remaining == 0 && !cell.completed {
		cell.completed = true
		res := sched.CellResult{Index: u.Cell, Job: r.jobs[u.Cell]}
		for _, e := range cell.errs { // deterministic: first error by shard index
			if e != "" {
				res.Err = fmt.Errorf("fabric: shard failed: %s", e)
				break
			}
		}
		if res.Err == nil {
			res.Result, res.Err = montecarlo.MergeShards(cfg, cell.parts)
		}
		r.results[u.Cell] = res
		r.completed++
		emits = append(emits, emission{run: r, res: res})
		if r.completed == len(r.jobs) {
			// done closes once this emission is delivered (emitAll).
			r.finished = true
			h.stats.RunsCompleted++
			h.detachRunLocked(r)
		}
	}
	return emits
}

// cancelCellLocked stops a cell's outstanding work: live leases get the
// cancel reason for their next heartbeat, and — when settleAll is set, or
// always for pending (unleased) units — units are settled as empty shards
// immediately. With settleAll false (the banked-target path), leased units
// stay outstanding: their workers abort at the next batch boundary and
// submit partial tallies, exactly like sibling shards observing their
// shared budget.
func (h *Hub) cancelCellLocked(r *Run, cellIdx int, reason string, settleAll bool) []emission {
	var emits []emission
	for k, u := range r.q.Units {
		if u.Cell != cellIdx {
			continue
		}
		switch r.ustate[k] {
		case unitPending:
			h.stats.UnitsSettled++
			emits = append(emits, h.recordUnitLocked(r, k, montecarlo.ShardResult{Shard: u.Shard}, "")...)
		case unitLeased:
			if l := h.leases[r.ulease[k]]; l != nil && l.cancelReason == "" {
				l.cancelReason = reason
			}
			if settleAll {
				emits = append(emits, h.recordUnitLocked(r, k, montecarlo.ShardResult{Shard: u.Shard}, "")...)
			}
		}
	}
	return emits
}

// detachRunLocked removes a run from the active lease rotation (it stays
// in the runs map for duplicate detection until Wait reaps it).
func (h *Hub) detachRunLocked(r *Run) {
	for i, a := range h.active {
		if a == r {
			h.active = append(h.active[:i], h.active[i+1:]...)
			return
		}
	}
}

// ID returns the run's identifier.
func (r *Run) ID() string { return r.id }

// Cancel stops the run: pending units are dropped, outstanding leases are
// told to abort without submitting, and Wait returns an error. Cells not
// fully merged are never delivered — no partial merges.
func (r *Run) Cancel() {
	h := r.hub
	h.mu.Lock()
	if r.finished || r.cancelled {
		h.mu.Unlock()
		return
	}
	r.cancelled = true
	r.pending = nil
	for _, l := range h.leases {
		if l.run == r {
			l.cancelReason = ReasonCancelled
		}
	}
	h.stats.RunsCancelled++
	h.detachRunLocked(r)
	close(r.done)
	h.mu.Unlock()
}

// Wait blocks until every cell has merged and been delivered to OnResult
// (or the run is cancelled, or ctx is done — which cancels the run), then
// returns the per-cell results in submission order and reaps the run from
// the hub. Completed cells carry exactly the Result montecarlo.MergeShards
// gives the cell's RunShardOn shards, shard i on stream i.
func (r *Run) Wait(ctx context.Context) ([]sched.CellResult, error) {
	select {
	case <-r.done:
	case <-ctx.Done():
		r.Cancel()
		<-r.done
	}
	h := r.hub
	h.mu.Lock()
	delete(h.runs, r.id)
	results := append([]sched.CellResult(nil), r.results...)
	cancelled := r.cancelled
	h.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	if cancelled {
		return results, fmt.Errorf("fabric: run %s cancelled", r.id)
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("fabric: cell %d: %w", i, results[i].Err)
		}
	}
	return results, nil
}
