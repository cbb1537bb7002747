package fabric_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
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

// TestE2EClusterOverTCP is the real-process smoke test: build vlqserve
// and vlqworker, boot vlqserve with its fabric coordinator plus two worker
// processes over TCP loopback, run a pinned-seed "mode":"fabric" sweep
// through POST /v1/sweeps, require the streamed cells bit-identical to an
// in-process reference run and the trailing job status "done", and shut
// everything down with SIGTERM expecting clean zero exits.
func TestE2EClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real processes")
	}
	bins := buildCommands(t, "vlqserve", "vlqworker")

	// Both listeners on ephemeral ports; stderr announces the resolved
	// addresses, the fabric one first.
	coord := exec.Command(bins["vlqserve"], "-addr", "127.0.0.1:0",
		"-fabric-listen", "127.0.0.1:0", "-fabric-ttl", "2s")
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	addrs := awaitAddrs(t, coordErr,
		regexp.MustCompile(`fabric coordinator on (\S+)`), regexp.MustCompile(`listening on (\S+)`))
	fabricBase, base := "http://"+addrs[0], "http://"+addrs[1]

	awaitHealthy(t, base+"/healthz")

	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		w := exec.Command(bins["vlqworker"], "-coordinator", fabricBase, "-poll", "5ms", "-name", "smoke")
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
		Mode: "fabric",
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, msg)
	}
	// Cell lines, then the job's status as the last line.
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var status serve.JobStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &status); err != nil {
		t.Fatalf("trailing status line %q: %v", lines[len(lines)-1], err)
	}
	if status.State != serve.StateDone {
		t.Errorf("fabric job ended %q (%s), want %q", status.State, status.Error, serve.StateDone)
	}
	var got []serve.CellRecord
	for _, line := range lines[:len(lines)-1] {
		var rec serve.CellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("cell line %q: %v", line, err)
		}
		got = append(got, rec)
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

	// Clean shutdown: SIGTERM each worker, then vlqserve; all must exit
	// zero.
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
		t.Errorf("vlqserve did not exit cleanly on SIGTERM: %v", err)
	}
}

// A -fabric-listen address that cannot be bound must stop vlqserve at
// startup with a non-zero exit, not leave it serving with a fabric no
// worker can reach.
func TestServeExitsWhenFabricBindFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots a real process")
	}
	bins := buildCommands(t, "vlqserve")
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	srv := exec.Command(bins["vlqserve"], "-addr", "127.0.0.1:0", "-fabric-listen", taken.Addr().String())
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	err = awaitExit(srv)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
		t.Fatalf("vlqserve with a taken -fabric-listen port: %v, want a non-zero exit within 10s\n%s", err, stderr.Bytes())
	}
}

// buildCommands builds the named cmd/ binaries into a temporary directory
// and returns their paths by name.
func buildCommands(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bins[name] = filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bins[name], "repro/cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	return bins
}

// awaitAddrs scans a process's stderr, in order, for each pattern's first
// capture.
func awaitAddrs(t *testing.T, r io.Reader, res ...*regexp.Regexp) []string {
	t.Helper()
	ch := make(chan []string, 1)
	go func() {
		var addrs []string
		sc := bufio.NewScanner(r)
		for len(addrs) < len(res) && sc.Scan() {
			if m := res[len(addrs)].FindStringSubmatch(sc.Text()); m != nil {
				addrs = append(addrs, m[1])
			}
		}
		ch <- addrs
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addrs := <-ch:
		if len(addrs) < len(res) {
			t.Fatalf("process announced %d of %d addresses before closing stderr", len(addrs), len(res))
		}
		return addrs
	case <-time.After(10 * time.Second):
		t.Fatal("process never announced its addresses")
		return nil
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
