// Command vlqworker is a fabric worker: it registers with a coordinator
// (vlqserve -fabric-listen), pulls sweep shard leases, runs
// them on a process-wide Monte-Carlo engine — one long-lived worker state,
// so consecutive leases of the same experiment skip structure and
// decoding-graph builds — and streams shard tallies back. Which worker
// runs a shard never reaches the results: the coordinator's merge is
// bit-identical to a local run at any worker count.
//
//	vlqworker -coordinator http://127.0.0.1:8791
//
// Flags: -coordinator base URL (required), -name operator-facing label,
// -cache engine structure-cache entries, -poll idle polling interval.
// SIGINT/SIGTERM aborts the in-flight shard at its next batch boundary
// without submitting a partial tally (the coordinator reassigns the unit)
// and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/montecarlo"
)

func main() {
	coord := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8791 (required)")
	name := flag.String("name", "", "operator-facing worker label (default: hostname)")
	cache := flag.Int("cache", montecarlo.DefaultCacheEntries, "engine structure-cache entries (LRU; <= 0 unbounded)")
	poll := flag.Duration("poll", 50*time.Millisecond, "idle polling interval when the coordinator has no work")
	flag.Parse()

	if *coord == "" {
		fmt.Fprintln(os.Stderr, "vlqworker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	w := fabric.NewWorker(&fabric.HTTPTransport{Base: *coord}, fabric.WorkerOptions{
		Name:         *name,
		Engine:       montecarlo.NewEngineWithCache(*cache),
		PollInterval: *poll,
	})
	fmt.Fprintf(os.Stderr, "vlqworker: pulling leases from %s\n", *coord)
	err := w.Run(ctx)
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "vlqworker: coordinator shut down; exiting")
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "vlqworker: signal received; exiting")
	default:
		fmt.Fprintln(os.Stderr, "vlqworker:", err)
		os.Exit(1)
	}
}
