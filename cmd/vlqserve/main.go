// Command vlqserve runs the sweep-serving front end: a long-lived HTTP
// service that executes the paper's threshold (Fig. 11) and sensitivity
// (Fig. 12) sweeps on demand and streams per-cell results as NDJSON or
// SSE. One process-wide Monte-Carlo engine backs every request, so
// repeated sweeps of the same (scheme, distance) experiment skip the
// circuit, fault-structure, and decoding-graph builds entirely — check
// GET /v1/stats for the cache counters.
//
// Example session:
//
//	vlqserve -addr :8324 &
//	curl -N -d '{"scheme":"baseline","distances":[3],"trials":2000}' \
//	    localhost:8324/v1/sweeps
//	curl localhost:8324/v1/stats
//
// Flags: -addr listen address, -jobs default scheduler pool width per
// sweep, -cache engine structure-cache entries, -max-jobs concurrent
// sweeps, -queue waiting sweeps beyond that (further submissions get 429),
// -retain finished jobs kept for status/replay, -pprof a separate debug
// listen address serving net/http/pprof (off by default; keep it on a
// loopback or otherwise private address — profiles expose internals).
// SIGINT/SIGTERM drain in-flight requests, then cancel outstanding jobs.
//
// With -ledger the server persists every finished cell to an append-only
// JSONL file and replays it on startup: a cell the file already holds —
// from this run or any earlier one — is served without touching the
// engine, marked "source":"ledger" in its record. Without the flag the
// same dedup still happens in memory, for the life of the process only.
// GET /metrics exposes the serving stack (submissions, cell provenance,
// latency histograms, ledger/coalescing/engine counters) in Prometheus
// text format.
//
// With -fabric-listen the process additionally runs the fabric coordinator
// on that address (the wire protocol and GET /fabric/v1/stats): vlqworker
// processes connect to it, and sweeps submitted with "mode":"fabric" are
// leased to them instead of the local pool — merging to bit-identical
// results, under the same ledger, coalescing and admission limits as local
// sweeps. -fabric-ttl tunes the lease time-to-live (how quickly a lost
// worker's units are reassigned). Both addresses are bound before anything
// is served, so ":0" ports work (stderr prints the resolved addresses) and
// a failed bind exits non-zero at startup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/montecarlo"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8324", "listen address")
	jobs := flag.Int("jobs", 0, "default scheduler pool width per sweep (0 = GOMAXPROCS)")
	cache := flag.Int("cache", montecarlo.DefaultCacheEntries, "engine structure-cache entries (LRU; <= 0 unbounded)")
	maxJobs := flag.Int("max-jobs", 2, "sweep jobs running concurrently")
	queue := flag.Int("queue", 8, "sweep jobs waiting beyond -max-jobs before submissions get 429 (negative: no queueing)")
	retain := flag.Int("retain", 64, "finished jobs retained for status/replay")
	ledgerPath := flag.String("ledger", "", "append-only JSONL result-ledger file, replayed on startup (empty = in-memory only)")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof debug endpoints (e.g. localhost:6060; empty = disabled)")
	fabricAddr := flag.String("fabric-listen", "", "listen address for the fabric coordinator (e.g. :8791; empty = fabric mode disabled)")
	fabricTTL := flag.Duration("fabric-ttl", fabric.DefaultLeaseTTL, "fabric lease time-to-live before a silent worker's units are reassigned")
	flag.Parse()

	// The profiling endpoints live on their own listener and mux, never the
	// serving one, so enabling them cannot expose /debug/pprof to sweep
	// clients.
	if *pprofAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "vlqserve: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, dbg); err != nil {
				fmt.Fprintln(os.Stderr, "vlqserve: pprof:", err)
			}
		}()
	}

	// Both listeners bind before anything serves, so a taken port is a
	// startup failure rather than a server running with a dead fabric, and
	// ":0" addresses resolve before they are announced.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var hub *fabric.Hub
	var fabricServer *http.Server
	if *fabricAddr != "" {
		fln, err := net.Listen("tcp", *fabricAddr)
		if err != nil {
			fatal(fmt.Errorf("fabric: %w", err))
		}
		hub = fabric.NewHub(fabric.Options{LeaseTTL: *fabricTTL})
		fabricServer = &http.Server{Handler: hub.Handler()}
		go func() {
			if err := fabricServer.Serve(fln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "vlqserve: fabric:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "vlqserve: fabric coordinator on %s (lease ttl %s)\n", fln.Addr(), *fabricTTL)
	}

	var ledger serve.Ledger
	if *ledgerPath != "" {
		if ledger, err = serve.OpenFileLedger(*ledgerPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vlqserve: result ledger %s (%d cells replayed)\n",
			*ledgerPath, ledger.Stats().Entries)
	}

	server := serve.NewServer(serve.Config{
		Engine:            montecarlo.NewEngineWithCache(*cache),
		Ledger:            ledger,
		MaxConcurrentJobs: *maxJobs,
		QueueDepth:        *queue,
		DefaultPoolWidth:  *jobs,
		RetainJobs:        *retain,
		Fabric:            hub,
	})
	httpServer := &http.Server{Handler: server}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "vlqserve: listening on %s (max-jobs=%d queue=%d cache=%d)\n",
		ln.Addr(), *maxJobs, *queue, *cache)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight streams finish
	// their current cell, then cancel whatever is still running.
	fmt.Fprintln(os.Stderr, "vlqserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server.Close() // cancels outstanding jobs; streams end at the next cell boundary
	if hub != nil {
		hub.Close() // tells polling workers to shut down, cancels fabric runs
		_ = fabricServer.Shutdown(shutdownCtx)
	}
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	if ledger != nil {
		if err := ledger.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "vlqserve:", err)
	os.Exit(1)
}
