// Command vlqfabric runs a standalone fabric coordinator: the lease server
// that vlqworker processes pull sweep shard units from. It serves the
// fabric wire protocol plus GET /fabric/v1/stats, and accepts sweep
// submissions on POST /v1/fabric/sweeps with the same SweepRequest body
// the serving front end takes — results stream back as NDJSON cell lines.
// Without shard_shots they are bit-identical to a local run of the same
// request; a cell split into n shards equals montecarlo.MergeShards of its
// shards, shard i on stream i.
//
// Example cluster on one machine:
//
//	vlqfabric -addr 127.0.0.1:8791 &
//	vlqworker -coordinator http://127.0.0.1:8791 &
//	vlqworker -coordinator http://127.0.0.1:8791 &
//	curl -N -d '{"scheme":"baseline","distances":[3],"trials":2000,"shard_shots":1024}' \
//	    127.0.0.1:8791/v1/fabric/sweeps
//
// Flags: -addr listen address, -ttl lease time-to-live (a worker silent
// for this long forfeits its leases and their units are reassigned).
// SIGINT/SIGTERM cancels outstanding runs, tells polling workers to shut
// down, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address")
	ttl := flag.Duration("ttl", fabric.DefaultLeaseTTL, "lease time-to-live before a silent worker's units are reassigned")
	flag.Parse()

	hub := fabric.NewHub(fabric.Options{LeaseTTL: *ttl})

	mux := http.NewServeMux()
	mux.Handle("/fabric/v1/", hub.Handler())
	mux.HandleFunc("POST /v1/fabric/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSweep(hub, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	httpServer := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlqfabric:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()
	// The resolved address line (":0" resolves to an ephemeral port) is the
	// smoke harness's handle on the coordinator.
	fmt.Fprintf(os.Stderr, "vlqfabric: coordinating on %s (lease ttl %s)\n", ln.Addr(), *ttl)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "vlqfabric:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "vlqfabric: shutting down")
	hub.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpServer.Shutdown(shutdownCtx)
}

// handleSweep expands one SweepRequest, submits it to the hub, and streams
// the merged cells back as NDJSON, ending when the run completes or the
// client disconnects (which cancels the run).
func handleSweep(hub *fabric.Hub, w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "invalid request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	cells, err := serve.BuildCells(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	recs := make(chan serve.CellRecord, len(cells))
	run, err := hub.Submit(cells, fabric.RunOptions{
		ShardShots: req.ShardShots,
		OnResult:   func(res sched.CellResult) { recs <- serve.ToCellRecord(res) },
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	done := 0
	for done < len(cells) {
		select {
		case rec := <-recs:
			done++
			_ = enc.Encode(rec)
			if flusher != nil {
				flusher.Flush()
			}
		case <-run.Done():
			// Drain anything already queued, then stop.
			for {
				select {
				case rec := <-recs:
					done++
					_ = enc.Encode(rec)
				default:
					if flusher != nil {
						flusher.Flush()
					}
					return
				}
			}
		case <-r.Context().Done():
			run.Cancel()
			return
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _ = run.Wait(ctx)
}
