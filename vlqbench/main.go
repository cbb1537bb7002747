// Command vlqbench is the repository benchmark: three workloads (a Fig. 11
// threshold row, the golden rare-event cells, and a mixed serving load)
// driven through the public APIs of internal/sched, internal/montecarlo and
// internal/serve. With --trace 0 it reports the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it replays each workload's cells through
// internal/extract, internal/dem and internal/decoder with spans around
// every call and reports the per-layer metrics. Every run checks the
// program's outputs; a failed check fails the run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// bench is the state of one benchmark run.
type bench struct {
	root    string
	seed    int64
	seconds time.Duration
	// width is the scheduler pool width and the serving client count: at
	// most two, and never more than the machine's CPUs.
	width int
	tr    *tracer // nil when untraced
	tmp   string  // scratch directory inside the checkout

	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string  // human-readable lines printed before the result
	cal       []float64 // calibration kernel times, ms
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// checkError is an output check that failed: the run is reported as
// incorrect rather than as an operational error.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFail(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// spec is the part of BENCHMARK.json the program checks its output against.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*bench) error{
	"fig11-sweep": runFig11,
	"rare-deep":   runRare,
	"serve-mix":   runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name: fig11-sweep, rare-deep or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	root := flag.String("root", ".", "repository checkout")
	commit := flag.String("commit", "unknown", "source revision recorded in the run metadata")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "vlqbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, root, commit string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		root: root, seed: seed, seconds: time.Duration(seconds) * time.Second,
		width: min(2, runtime.NumCPU()), tmp: tmp,
		metrics: map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	meta := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"pool_width": b.width, "clients": b.width,
		"go": runtime.Version(), "commit": commit,
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)

	runErr := fn(b)
	var ce *checkError
	if runErr != nil && !errors.As(runErr, &ce) {
		return runErr
	}

	declared := sp.EndToEnd
	if traced {
		declared = sp.PerLayer
	}
	res := result{Correct: runErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if res.Correct {
		for _, m := range declared {
			v, ok := b.metrics[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not produce metric %s", workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		for name := range b.metrics {
			if !slices.ContainsFunc(declared, func(m metricSpec) bool { return m.Name == name }) {
				return fmt.Errorf("workload %s produced undeclared metric %s", workload, name)
			}
		}
	}
	if traced {
		path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := b.tr.write(path, meta); err != nil {
			return err
		}
		b.note("spans written to %s", path)
	}
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	if len(b.cal) > 0 {
		fmt.Printf("# calibration kernel: %d rounds, median %.3f ms, range %.3f-%.3f ms (reference %v)\n",
			len(b.cal), quantile(b.cal, 0.5), slices.Min(b.cal), slices.Max(b.cal), calRef)
	}
	if b.attempted > 0 {
		fmt.Printf("# failed_frac %.6g (%d of %d attempted)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	if runErr != nil {
		fmt.Println("#", runErr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return runErr
}

// timeWindow reports whether another unit of work may start: at least one
// always runs, then units start until the measurement window has elapsed.
func (b *bench) timeWindow(start time.Time, done int) bool {
	return done == 0 || time.Since(start) < b.seconds
}

// setupReps is how many times each workload repeats its set-up; setup_s
// reports the median.
const setupReps = 3

// measureSetup runs setup reps times, reporting the median calibrated
// duration as setup_s, and returns the last set-up's value. Each discarded
// set-up is torn down before the next starts.
func measureSetup[T any](b *bench, reps int, setup func() (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := range reps {
		runtime.GC()
		k := b.calibrate()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		d := time.Since(start)
		times = append(times, d.Seconds()*scale(k, b.calibrate()))
		if i < reps-1 && teardown != nil {
			teardown(v)
		}
		last = v
	}
	b.set("setup_s", quantile(times, 0.5))
	return last, nil
}

// Calibration. On a shared machine, neighbours slow this program by up to
// half for tens of seconds at a time: more than the changes the benchmark
// must resolve, and longer than a run can average out. So every timed
// round (a set-up, a sweep pass, a hit-probe round, a second of serving
// load) is bracketed by a fixed kernel, sorting calSize pseudo-random ints
// on each of the width workers, and the round's times are scaled by calRef
// over the mean of the kernel's median times before and after it:
// end-to-end times are reported in seconds of a machine on which the
// kernel takes calRef. Sorting was chosen because its
// slowdowns track the Monte-Carlo engine's: over 80 s of such noise, the
// engine's 4-second medians spread 16% (quartile distance over median)
// alone and 3% relative to the sort. The kernel runs while the program is
// idle, so work the program does in the background is not scaled away.
const (
	calSize = 60000
	calReps = 5
	calRef  = 5 * time.Millisecond
)

// calibrate runs the kernel and returns its median time in ns.
func (b *bench) calibrate() float64 {
	times := make([][]float64, b.width)
	var wg sync.WaitGroup
	for w := range b.width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, calSize)
			for range calReps {
				x := uint64(88172645463325252)
				for i := range buf {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[i] = int(x >> 1)
				}
				start := time.Now()
				slices.Sort(buf)
				times[w] = append(times[w], float64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	k := quantile(slices.Concat(times...), 0.5)
	b.cal = append(b.cal, k/1e6)
	return k
}

// scale is the calibration factor of a round bracketed by kernel times
// before and after, in ns.
func scale(before, after float64) float64 { return float64(calRef) / ((before + after) / 2) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
