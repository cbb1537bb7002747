package fabric_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/montecarlo"
	"repro/internal/serve"
)

// TestE2EClusterOverTCP is the real-process smoke test: build vlqfabric
// and vlqworker, boot a coordinator plus two worker processes over TCP
// loopback, run a pinned-seed sweep through the cluster, require the
// streamed cells bit-identical to an in-process reference run, and shut
// everything down with SIGTERM expecting clean zero exits.
func TestE2EClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real processes")
	}
	dir := t.TempDir()
	coordBin := filepath.Join(dir, "vlqfabric")
	workerBin := filepath.Join(dir, "vlqworker")
	for bin, pkg := range map[string]string{coordBin: "repro/cmd/vlqfabric", workerBin: "repro/cmd/vlqworker"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// Coordinator on an ephemeral port; its stderr announces the address.
	coord := exec.Command(coordBin, "-addr", "127.0.0.1:0", "-ttl", "2s")
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	base := "http://" + awaitAddr(t, coordErr, regexp.MustCompile(`coordinating on (\S+)`))

	awaitHealthy(t, base+"/healthz")

	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		w := exec.Command(workerBin, "-coordinator", base, "-poll", "5ms", "-name", "smoke")
		w.Stderr = nil
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Process.Kill()
		workers = append(workers, w)
	}

	// The sweep: a pinned-seed baseline row, sharded at the floor so the
	// cells actually fan out across both workers.
	req := serve.SweepRequest{
		Scheme: "baseline", Distances: []int{3, 5},
		Rates:  []float64{0.004, 0.008, 0.016},
		Trials: 2 * montecarlo.MinShardShots, Seed: 11, ShardShots: 1,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/fabric/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, msg)
	}
	var got []serve.CellRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec serve.CellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("cell line %q: %v", line, err)
		}
		got = append(got, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The reference: each cell of the identical request through its shard
	// plan in index order (fabric.RunReference).
	cells, err := serve.BuildCells(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("cluster streamed %d cells, the request has %d", len(got), len(cells))
	}
	want := make(map[int]serve.CellRecord, len(cells))
	for _, r := range fabric.RunReference(t, cells, req.ShardShots) {
		want[r.Index] = serve.ToCellRecord(r)
	}
	for _, rec := range got {
		if rec != want[rec.Index] {
			t.Errorf("cell %d diverged over TCP:\n cluster   %+v\n reference %+v", rec.Index, rec, want[rec.Index])
		}
	}

	// Clean shutdown: SIGTERM each worker, then the coordinator; all must
	// exit zero.
	for i, w := range workers {
		if err := w.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("worker %d signal: %v", i, err)
		}
	}
	for i, w := range workers {
		if err := awaitExit(w); err != nil {
			t.Errorf("worker %d did not exit cleanly on SIGTERM: %v", i, err)
		}
	}
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := awaitExit(coord); err != nil {
		t.Errorf("coordinator did not exit cleanly on SIGTERM: %v", err)
	}
}

// awaitAddr scans a process's stderr for the pattern's first capture.
func awaitAddr(t *testing.T, r io.Reader, re *regexp.Regexp) string {
	t.Helper()
	ch := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				ch <- m[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-ch:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never announced its address")
		return ""
	}
}

func awaitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// awaitExit waits up to 10s for the process to exit with status 0.
func awaitExit(cmd *exec.Cmd) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return <-done
	}
}
