package fabric

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/montecarlo"
)

// ErrHalt is the sentinel a Transport returns (wrapped) when the worker
// must stop immediately — the coordinator told it to shut down, or a test
// harness killed its transport. Worker.Run propagates it without retrying.
var ErrHalt = errors.New("fabric: transport halted")

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// Name is an optional operator-facing label sent at registration.
	Name string
	// Engine executes leases (a fresh default engine if nil). All leases
	// run on the calling goroutine through Engine.RunShardOn, reusing one
	// WorkerState across leases, so consecutive leases of the same
	// experiment skip structure and graph builds exactly like a local
	// pool worker walking a sweep row.
	Engine *montecarlo.Engine
	// PollInterval is the idle wait between lease requests when the
	// coordinator has no work (default 50ms).
	PollInterval time.Duration
	// HeartbeatInterval is the keep-alive cadence while executing a lease
	// (default: a third of the coordinator's lease TTL).
	HeartbeatInterval time.Duration
	// SubmitRetries bounds result-submission attempts (default 8); past
	// it the result is dropped and the lease left to expire and be re-run.
	SubmitRetries int
	// RetryInterval is the wait between submission retries and failed
	// registration attempts (default 100ms).
	RetryInterval time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Engine == nil {
		o.Engine = montecarlo.NewEngine()
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.SubmitRetries <= 0 {
		o.SubmitRetries = 8
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 100 * time.Millisecond
	}
	return o
}

// Worker is the fabric's execution side: it registers with a coordinator,
// pulls leases, runs them through montecarlo.Engine.RunShardOn on one
// long-lived WorkerState (structure cache and decode buffers survive
// across leases), and streams ShardResults back. cmd/vlqworker wraps one
// Worker per process; the in-process test harness runs several over a
// direct transport.
type Worker struct {
	tr   Transport
	opts WorkerOptions

	id  string
	ttl time.Duration
	st  montecarlo.WorkerState
}

// NewWorker returns a worker over the transport.
func NewWorker(tr Transport, opts WorkerOptions) *Worker {
	return &Worker{tr: tr, opts: opts.withDefaults()}
}

// sleep waits d or until ctx is done, reporting whether the wait completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run is the worker loop: register, then pull and execute leases until the
// coordinator says shutdown or ctx is done. A ctx cancellation mid-lease
// aborts the shard at its next batch boundary without submitting the
// partial tally (the lease expires and is re-run elsewhere), so SIGTERM is
// always clean. Returns nil on shutdown, ctx.Err() on cancellation, or a
// transport error wrapping ErrHalt.
func (w *Worker) Run(ctx context.Context) error {
	for {
		resp, err := w.tr.Register(ctx, RegisterRequest{Name: w.opts.Name})
		if err == nil {
			w.id = resp.Worker
			w.ttl = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			break
		}
		if errors.Is(err, ErrHalt) {
			return err
		}
		if !sleep(ctx, w.opts.RetryInterval) {
			return ctx.Err()
		}
	}
	hb := w.opts.HeartbeatInterval
	if hb <= 0 {
		hb = w.ttl / 3
	}
	if hb <= 0 {
		hb = time.Second
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.tr.Lease(ctx, LeaseRequest{Worker: w.id})
		if err != nil {
			if errors.Is(err, ErrHalt) {
				return err
			}
			if !sleep(ctx, w.opts.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		switch resp.Status {
		case StatusShutdown:
			return nil
		case StatusLease:
			if err := w.execute(ctx, resp.Lease, hb); err != nil {
				return err
			}
		default: // StatusWait
			if !sleep(ctx, w.opts.PollInterval) {
				return ctx.Err()
			}
		}
	}
}

// execute runs one lease and submits its result. Heartbeats run on a side
// goroutine for the duration; a cancellation notice aborts the shard's
// budget, and the recorded reason decides whether the partial tally is
// submitted (settled: yes, it contributes trials like any early-stopped
// shard) or dropped (expired/cancelled: the coordinator no longer wants
// it, and a partial from an expired lease must never race the re-run).
func (w *Worker) execute(ctx context.Context, l *Lease, hbInterval time.Duration) error {
	var budget montecarlo.ShardBudget
	var mu sync.Mutex
	cancelReason := ""

	hbCtx, stopHB := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			resp, err := w.tr.Heartbeat(hbCtx, HeartbeatRequest{Worker: w.id, Leases: []string{l.ID}})
			if err != nil {
				continue // transient; the next tick retries
			}
			for _, c := range resp.Cancel {
				if c.Lease == l.ID {
					mu.Lock()
					if cancelReason == "" {
						cancelReason = c.Reason
					}
					mu.Unlock()
					budget.Abort()
					return
				}
			}
		}
	}()

	// A ctx cancellation (SIGTERM) must abort the in-flight shard promptly.
	ctxAborted := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-hbCtx.Done()
		if ctx.Err() != nil {
			budget.Abort()
		}
	}()

	plan := montecarlo.ShardPlan{Shards: l.Shards, Trials: l.Trials}
	sr, runErr := w.opts.Engine.RunShardOn(l.Cfg, plan, l.Shard, &budget, &w.st)
	stopHB()
	wg.Wait()
	if ctx.Err() != nil && budget.Aborted() {
		ctxAborted = true
	}

	mu.Lock()
	reason := cancelReason
	mu.Unlock()
	if ctxAborted || reason == ReasonExpired || reason == ReasonCancelled {
		// Do not submit: the tally may be short, and the coordinator has
		// already (or will) reassign the unit.
		return ctx.Err()
	}

	req := ResultRequest{
		Worker: w.id, Lease: l.ID, Run: l.Run, Cell: l.Cell, Shard: l.Shard,
		Result: sr,
	}
	if runErr != nil {
		req.Result = montecarlo.ShardResult{Shard: l.Shard}
		req.Err = runErr.Error()
	}
	for attempt := 0; attempt < w.opts.SubmitRetries; attempt++ {
		_, err := w.tr.Submit(ctx, req)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrHalt) {
			return err
		}
		if !sleep(ctx, w.opts.RetryInterval) {
			return ctx.Err()
		}
	}
	// Retries exhausted: drop the result; the lease expires and the unit
	// is re-run, deterministically producing the same bytes.
	return nil
}
