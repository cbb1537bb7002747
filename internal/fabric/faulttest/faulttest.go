// Package faulttest injects worker and transport faults into a fabric
// cluster on deterministic schedules, to prove the coordinator's
// exactly-once merge holds the fabric's determinism contract under loss:
// every schedule — worker kills mid-lease, dropped result responses,
// stalled heartbeats past the lease deadline, duplicate late deliveries,
// expiry races — must merge bit-identically to a fault-free run.
//
// Faults are keyed by (worker index, protocol op, call ordinal), so a
// schedule is a pure description: replaying it against the same sweep
// produces the same injection points. Results stay bit-identical anyway —
// the contract under test is that timing never reaches the merged bytes.
package faulttest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
)

// Protocol ops a Rule can target.
const (
	OpRegister  = "register"
	OpLease     = "lease"
	OpHeartbeat = "heartbeat"
	OpSubmit    = "submit"
)

// Fault kinds.
const (
	// Kill severs the worker's transport at the matched call (the op is
	// not forwarded) and every call after it, wrapping fabric.ErrHalt —
	// the worker dies mid-lease and its units expire and are re-run.
	Kill = "kill"
	// DropResponse forwards the op but drops the response, returning a
	// transport error; the worker retries, exercising idempotency (a
	// retried submit must come back StatusDuplicate, never double-merge).
	DropResponse = "drop-response"
	// DuplicateDeliver forwards a submit twice back to back; the second
	// delivery must be discarded as a duplicate.
	DuplicateDeliver = "duplicate"
	// StallHeartbeat blocks the matched heartbeat past the lease TTL
	// before forwarding it, so the lease expires mid-flight and the late
	// heartbeat is answered with ReasonExpired — the worker must abort
	// without submitting while the unit is re-run elsewhere.
	StallHeartbeat = "stall-heartbeat"
	// HoldSubmit blocks the matched submit past the lease TTL before
	// forwarding, racing coordinator-side expiry: the held full tally and
	// the reassigned run's tally arrive in either order, and exactly one
	// may merge.
	HoldSubmit = "hold-submit"
)

// Rule matches one protocol call: the Call-th (1-based) invocation of Op
// on worker Worker gets Fault.
type Rule struct {
	Worker int
	Op     string
	Call   int
	Fault  string
}

// Schedule is a deterministic fault plan for one cluster run.
type Schedule struct {
	Name string
	// TTL is the lease TTL the hub must be configured with; stall and
	// hold faults sleep just past it.
	TTL   time.Duration
	Rules []Rule
}

// Transport wraps a worker's transport, applying the schedule's rules for
// that worker index.
type Transport struct {
	inner  fabric.Transport
	worker int
	sch    *Schedule

	mu     sync.Mutex
	counts map[string]int
	killed bool
}

// New wraps inner with the schedule's faults for worker index w.
func New(inner fabric.Transport, sch *Schedule, w int) *Transport {
	return &Transport{inner: inner, worker: w, sch: sch, counts: make(map[string]int)}
}

// fault consumes one call of op and returns the fault to apply, if any.
func (t *Transport) fault(op string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.killed {
		return "", fmt.Errorf("faulttest: worker %d killed: %w", t.worker, fabric.ErrHalt)
	}
	t.counts[op]++
	n := t.counts[op]
	for _, r := range t.sch.Rules {
		if r.Worker == t.worker && r.Op == op && r.Call == n {
			if r.Fault == Kill {
				t.killed = true
				return "", fmt.Errorf("faulttest: worker %d killed at %s#%d: %w", t.worker, op, n, fabric.ErrHalt)
			}
			return r.Fault, nil
		}
	}
	return "", nil
}

func (t *Transport) stall() {
	time.Sleep(t.sch.TTL + t.sch.TTL/2)
}

// Register implements fabric.Transport.
func (t *Transport) Register(ctx context.Context, req fabric.RegisterRequest) (fabric.RegisterResponse, error) {
	f, err := t.fault(OpRegister)
	if err != nil {
		return fabric.RegisterResponse{}, err
	}
	resp, err := t.inner.Register(ctx, req)
	if f == DropResponse && err == nil {
		return fabric.RegisterResponse{}, fmt.Errorf("faulttest: register response dropped")
	}
	return resp, err
}

// Lease implements fabric.Transport.
func (t *Transport) Lease(ctx context.Context, req fabric.LeaseRequest) (fabric.LeaseResponse, error) {
	f, err := t.fault(OpLease)
	if err != nil {
		return fabric.LeaseResponse{}, err
	}
	resp, err := t.inner.Lease(ctx, req)
	if f == DropResponse && err == nil {
		// The granted lease (if any) is lost in flight; it expires and is
		// reassigned — the harshest form of lease loss.
		return fabric.LeaseResponse{}, fmt.Errorf("faulttest: lease response dropped")
	}
	return resp, err
}

// Heartbeat implements fabric.Transport.
func (t *Transport) Heartbeat(ctx context.Context, req fabric.HeartbeatRequest) (fabric.HeartbeatResponse, error) {
	f, err := t.fault(OpHeartbeat)
	if err != nil {
		return fabric.HeartbeatResponse{}, err
	}
	if f == StallHeartbeat {
		t.stall()
	}
	resp, err := t.inner.Heartbeat(ctx, req)
	if f == DropResponse && err == nil {
		return fabric.HeartbeatResponse{}, fmt.Errorf("faulttest: heartbeat response dropped")
	}
	return resp, err
}

// Submit implements fabric.Transport.
func (t *Transport) Submit(ctx context.Context, req fabric.ResultRequest) (fabric.ResultResponse, error) {
	f, err := t.fault(OpSubmit)
	if err != nil {
		return fabric.ResultResponse{}, err
	}
	if f == HoldSubmit {
		t.stall()
	}
	resp, err := t.inner.Submit(ctx, req)
	if f == DuplicateDeliver && err == nil {
		if _, derr := t.inner.Submit(ctx, req); derr != nil {
			return resp, nil // the duplicate leg failing is itself a fault case
		}
	}
	if f == DropResponse && err == nil {
		return fabric.ResultResponse{}, fmt.Errorf("faulttest: result response dropped")
	}
	return resp, err
}
