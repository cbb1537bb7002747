package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fabric"
)

// newFabricServer returns a test server whose fabric hub has the given
// number of in-process workers.
func newFabricServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	hub := fabric.NewHub(fabric.Options{})
	t.Cleanup(hub.Close)
	cluster := fabric.StartCluster(workers, func(int) fabric.Transport { return fabric.Local{Hub: hub} },
		func(int) fabric.WorkerOptions {
			return fabric.WorkerOptions{PollInterval: 2 * time.Millisecond}
		})
	t.Cleanup(func() {
		for _, err := range cluster.Stop() {
			t.Errorf("worker error: %v", err)
		}
	})
	_, ts := newTestServer(t, Config{Fabric: hub})
	return ts
}

// TestFabricModeMatchesLocal submits the same pinned-seed row twice — once
// in local mode, once in fabric mode against a 3-worker in-process cluster
// — and requires identical cell records, plus fabric counters in /v1/stats.
func TestFabricModeMatchesLocal(t *testing.T) {
	ts := newFabricServer(t, 3)

	resp := postSweep(t, ts, "/v1/sweeps", rowBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local submit: HTTP %d", resp.StatusCode)
	}
	localCells, localStatus := readStream(t, resp)
	if localStatus.State != StateDone {
		t.Fatalf("local job ended %q: %s", localStatus.State, localStatus.Error)
	}

	// no_cache keeps the fabric leg off the ledger (the local leg just
	// stored these exact cells); the point here is that the fabric
	// *executor* reproduces the local bytes, not that the ledger can
	// replay them.
	fabricBody := `{"mode":"fabric","no_cache":true,"scheme":"baseline","distances":[3],"rates":[0.004,0.008,0.016],"trials":300,"seed":7}`
	resp = postSweep(t, ts, "/v1/sweeps", fabricBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fabric submit: HTTP %d", resp.StatusCode)
	}
	fabricCells, fabricStatus := readStream(t, resp)
	if fabricStatus.State != StateDone {
		t.Fatalf("fabric job ended %q: %s", fabricStatus.State, fabricStatus.Error)
	}
	if fabricStatus.Mode != "fabric" || localStatus.Mode != "local" {
		t.Errorf("status modes %q/%q, want fabric/local", fabricStatus.Mode, localStatus.Mode)
	}

	if len(fabricCells) != len(localCells) {
		t.Fatalf("fabric streamed %d cells, local %d", len(fabricCells), len(localCells))
	}
	// Completion order differs; compare by index.
	byIndex := make(map[int]CellRecord, len(localCells))
	for _, c := range localCells {
		byIndex[c.Index] = c
	}
	for _, c := range fabricCells {
		if c != byIndex[c.Index] {
			t.Errorf("cell %d diverged:\n fabric %+v\n local  %+v", c.Index, c, byIndex[c.Index])
		}
	}

	st := getStats(t, ts)
	if st.Fabric == nil {
		t.Fatal("/v1/stats has no fabric section despite a configured hub")
	}
	if st.Fabric.RunsCompleted != 1 || st.Fabric.ResultsAccepted == 0 || st.Fabric.Workers != 3 {
		t.Errorf("fabric stats %+v, want 1 completed run, >0 accepted results, 3 workers", st.Fabric)
	}
}

// TestFabricModeRejectedWithoutHub pins the 400 for fabric mode on a
// server started without a coordinator, and for unknown modes generally.
func TestFabricModeRejectedWithoutHub(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSweep(t, ts, "/v1/sweeps", `{"mode":"fabric","trials":100}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fabric mode without hub: HTTP %d, want 400", resp.StatusCode)
	}
	resp = postSweep(t, ts, "/v1/sweeps", `{"mode":"warp","trials":100}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode: HTTP %d, want 400", resp.StatusCode)
	}
	if st := getStats(t, ts); st.Fabric != nil {
		t.Error("/v1/stats grew a fabric section without a hub")
	}
}

// A cell the fabric splits into shards equals the merge of its shards,
// shard i on stream i, not the unsharded cell, so the ledger keys it by
// its shard count. A local request for the same cell must miss that entry
// and return exactly the bytes of a no_cache run, while a repeat of the
// sharded request is still served from the ledger.
func TestShardedFabricCellMissesLocalLedger(t *testing.T) {
	ts := newFabricServer(t, 2)
	const cell = `"scheme":"baseline","distances":[3],"rates":[0.008],"trials":4096,"seed":7`
	const sharded = `"mode":"fabric","shard_shots":1024,`
	run := func(fields string) CellRecord {
		t.Helper()
		resp := postSweep(t, ts, "/v1/sweeps", "{"+fields+"}")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit {%s}: HTTP %d", fields, resp.StatusCode)
		}
		cells, st := readStream(t, resp)
		if st.State != StateDone || len(cells) != 1 {
			t.Fatalf("submit {%s}: job ended %q with %d cells: %s", fields, st.State, len(cells), st.Error)
		}
		return cells[0]
	}

	first := run(sharded + cell)
	local := run(cell)
	if local.Source == sourceLedger {
		t.Errorf("local request was served the sharded fabric cell from the ledger: %+v", local)
	}
	if fresh := run(`"no_cache":true,` + cell); local != fresh {
		t.Errorf("local cell differs from a no_cache run:\n local    %+v\n no_cache %+v", local, fresh)
	}
	again := run(sharded + cell)
	if again.Source != sourceLedger {
		t.Errorf("repeat of the sharded request has source %q, want %q", again.Source, sourceLedger)
	}
	if again.Source = first.Source; again != first {
		t.Errorf("ledger replay of the sharded cell differs:\n replay %+v\n first  %+v", again, first)
	}
}
