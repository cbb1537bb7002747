// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§IV-§VII). Each benchmark prints the same rows/series the
// paper reports next to the paper's values (see README, "Reproducing the
// paper").
//
// Monte-Carlo volume is tunable without recompiling:
//
//	VLQ_TRIALS        trials per data point (default 1500; paper used 2,000,000)
//	VLQ_MAXDIST       largest code distance in sweeps (default 7; paper used 11)
//	VLQ_SWEEP_TRIALS  trials per cell in BenchmarkSweepRow (default 400)
//
// Run everything with:
//
//	go test -bench=. -benchmem
package vlq

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/decoder"
	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/layout"
	"repro/internal/magic"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/surgery"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchTrials() int { return envInt("VLQ_TRIALS", 1500) }

func benchDistances() []int {
	max := envInt("VLQ_MAXDIST", 7)
	var ds []int
	for d := 3; d <= max; d += 2 {
		ds = append(ds, d)
	}
	return ds
}

var printOnce sync.Map

// printTableOnce emits a report exactly once per benchmark name even when
// the framework reruns the function with growing b.N.
func printTableOnce(b *testing.B, body func()) {
	if _, dup := printOnce.LoadOrStore(b.Name(), true); !dup {
		body()
	}
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTableI_HardwareParameters(b *testing.B) {
	var sink hardware.Params
	for i := 0; i < b.N; i++ {
		sink = hardware.Default()
	}
	printTableOnce(b, func() {
		p := sink
		fmt.Println("\nTable I — hardware model (paper values in parentheses):")
		fmt.Printf("  T1,t   = %8.0f us  (100 us)\n", p.T1Transmon*1e6)
		fmt.Printf("  T1,c   = %8.0f us  (1 ms)\n", p.T1Cavity*1e6)
		fmt.Printf("  dt-t   = %8.0f ns  (200 ns)\n", p.Gate2Time*1e9)
		fmt.Printf("  dt     = %8.0f ns  (50 ns)\n", p.Gate1Time*1e9)
		fmt.Printf("  dt-m   = %8.0f ns  (200 ns)\n", p.GateTMTime*1e9)
		fmt.Printf("  dl/s   = %8.0f ns  (150 ns)\n", p.LoadStoreTime*1e9)
		fmt.Printf("  assumptions: measurement %0.0f ns, reset %0.0f ns, k=%d\n",
			p.MeasureTime*1e9, p.ResetTime*1e9, p.CavityDepth)
	})
}

// --- Figure 11: error thresholds --------------------------------------------

func thresholdBench(b *testing.B, scheme extract.Scheme, paperTh float64) {
	b.Helper()
	rates := montecarlo.DefaultPhysRates(6)
	trials := benchTrials()
	ds := benchDistances()
	s := sched.New(nil, sched.Options{})
	var pts []montecarlo.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = s.ThresholdSweep(scheme, ds, rates, hardware.Default(), trials, 11, montecarlo.UF, montecarlo.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTableOnce(b, func() {
		fmt.Printf("\nFig. 11 — %s (trials/point=%d):\n", scheme, trials)
		fmt.Printf("  %-10s", "p \\ d")
		for _, d := range ds {
			fmt.Printf(" d=%-9d", d)
		}
		fmt.Println()
		for _, p := range rates {
			fmt.Printf("  %-10.4g", p)
			for _, d := range ds {
				for _, pt := range pts {
					if pt.Phys == p && pt.Distance == d {
						fmt.Printf(" %-11.5f", pt.Result.Rate())
					}
				}
			}
			fmt.Println()
		}
		th := montecarlo.EstimateThreshold(pts)
		fmt.Printf("  measured p_th ~= %.4f   (paper: %.3f)\n", th, paperTh)
	})
}

func BenchmarkFigure11_BaselineThreshold(b *testing.B) {
	thresholdBench(b, extract.Baseline, 0.009)
}

func BenchmarkFigure11_NaturalAllAtOnce(b *testing.B) {
	thresholdBench(b, extract.NaturalAllAtOnce, 0.009)
}

func BenchmarkFigure11_NaturalInterleaved(b *testing.B) {
	thresholdBench(b, extract.NaturalInterleaved, 0.008)
}

func BenchmarkFigure11_CompactAllAtOnce(b *testing.B) {
	thresholdBench(b, extract.CompactAllAtOnce, 0.008)
}

func BenchmarkFigure11_CompactInterleaved(b *testing.B) {
	thresholdBench(b, extract.CompactInterleaved, 0.008)
}

// --- Figure 12: sensitivity studies -----------------------------------------

func sensitivityBench(b *testing.B, panel montecarlo.Panel, expectation string) {
	b.Helper()
	values := panel.DefaultValues(5)
	trials := benchTrials()
	ds := []int{3, 5}
	s := sched.New(nil, sched.Options{})
	var pts []montecarlo.SensitivityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = s.SensitivitySweep(panel, values, ds, trials, 13, montecarlo.UF, montecarlo.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTableOnce(b, func() {
		fmt.Printf("\nFig. 12 — %s sensitivity (compact-interleaved at p=2e-3, trials/point=%d):\n", panel, trials)
		fmt.Printf("  %-12s", "value \\ d")
		for _, d := range ds {
			fmt.Printf(" d=%-9d", d)
		}
		fmt.Println()
		for _, v := range values {
			fmt.Printf("  %-12.3g", v)
			for _, d := range ds {
				for _, pt := range pts {
					if pt.Value == v && pt.Distance == d {
						fmt.Printf(" %-11.5f", pt.Result.Rate())
					}
				}
			}
			fmt.Println()
		}
		fmt.Printf("  paper's finding: %s\n", expectation)
	})
}

func BenchmarkFigure12_SCSCErrorSensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelSCSC, "high sensitivity (steep slope at the 2e-3 marker)")
}

func BenchmarkFigure12_LoadStoreErrorSensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelLoadStoreError, "high sensitivity")
}

func BenchmarkFigure12_SCModeErrorSensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelSCModeError, "moderate sensitivity (one transmon-mode gate per plaquette per round)")
}

func BenchmarkFigure12_CavityT1Sensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelCavityT1, "sensitive at low T1, tapering once other errors dominate")
}

func BenchmarkFigure12_TransmonT1Sensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelTransmonT1, "like cavity T1 but offset ~10x (no benefit past T1,t > T1,c/10 at k=10)")
}

func BenchmarkFigure12_LoadStoreDurationSensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelLoadStoreDuration, "mostly insensitive")
}

func BenchmarkFigure12_CavitySizeSensitivity(b *testing.B) {
	sensitivityBench(b, montecarlo.PanelCavitySize, "proportional but minor increase with k")
	printTableOnce(b, func() {}) // table printed by sensitivityBench
	if b.N > 0 {
		params := montecarlo.OperatingPoint()
		roundDur := params.ResetTime + 2*params.Gate1Time + 4*params.Gate2Time + params.MeasureTime
		kGate := montecarlo.CavityCrossoverEstimate(params, roundDur, montecarlo.GateBudgetPerRound(params))
		kTh := montecarlo.CavityCrossoverEstimate(params, roundDur, montecarlo.StorageErrorThreshold)
		if _, dup := printOnce.LoadOrStore(b.Name()+"/crossover", true); !dup {
			fmt.Printf("  cavity-size crossover: k=%d (vs per-round gate budget), k=%d (vs storage threshold); paper: k ~ 150\n", kGate, kTh)
		}
	}
}

// --- Figure 13 and Table II: magic-state distillation ------------------------

func BenchmarkFigure13a_TStateRate(b *testing.B) {
	var rates [3]float64
	for i := 0; i < b.N; i++ {
		for j, p := range magic.Protocols {
			rates[j] = p.RateWithPatches(100)
		}
	}
	printTableOnce(b, func() {
		fmt.Println("\nFig. 13a — T-state production rate with 100 patches:")
		for j, p := range magic.Protocols {
			fmt.Printf("  %-12s %.4f T/timestep\n", p.Name, rates[j])
		}
		fmt.Printf("  VQubits/Fast = %.2fx (paper: 1.82x), VQubits/Small = %.2fx (paper: 1.22x)\n",
			magic.VQubits.SpeedupOver(magic.FastLattice), magic.VQubits.SpeedupOver(magic.SmallLattice))
	})
}

func BenchmarkFigure13b_SpacePerTState(b *testing.B) {
	var space [3]float64
	for i := 0; i < b.N; i++ {
		for j, p := range magic.Protocols {
			space[j] = p.PatchesForOneTPerStep()
		}
	}
	printTableOnce(b, func() {
		fmt.Println("\nFig. 13b — space to produce 1 T state per timestep:")
		for j, p := range magic.Protocols {
			fmt.Printf("  %-12s %.0f patches\n", p.Name, space[j])
		}
	})
}

func BenchmarkTableII_ResourceCosts(b *testing.B) {
	var rows [4]layout.Resources
	for i := 0; i < b.N; i++ {
		rows[0] = magic.FastLattice.Resources(5, 10)
		rows[1] = magic.SmallLattice.Resources(5, 10)
		rows[2] = magic.VQubitsSolo.Resources(5, 10)
		rows[3] = magic.VQubitsSolo.WithEmbedding(layout.Compact, "VQubits (compact)").Resources(5, 10)
	}
	printTableOnce(b, func() {
		names := []string{"Fast Lattice [21]", "Small Lattice [12]", "VQubits (natural)", "VQubits (compact)"}
		paper := [][3]int{{1499, 0, 1499}, {549, 0, 549}, {49, 25, 299}, {29, 25, 279}}
		fmt.Println("\nTable II — T-state block costs at d=5, k=10 (measured vs paper):")
		fmt.Printf("  %-20s %-22s %-22s %-22s\n", "protocol", "transmons", "cavities", "total qubits")
		for j, r := range rows {
			fmt.Printf("  %-20s %6d (paper %6d)  %6d (paper %6d)  %6d (paper %6d)\n",
				names[j], r.Transmons, paper[j][0], r.Cavities, paper[j][1], r.TotalQubits(), paper[j][2])
		}
		c3, _ := layout.NewRotated(3)
		e3, _ := layout.NewEmbedding(layout.Compact, c3)
		fmt.Printf("  smallest Compact instance: %d transmons + %d cavities for k logical qubits (paper: 11 + 9)\n",
			e3.NumTransmons(), e3.NumCavities())
	})
}

// --- Headline claims ----------------------------------------------------------

func BenchmarkClaim_TransversalCNOTSpeedup(b *testing.B) {
	var est magic.ScheduleEstimate
	for i := 0; i < b.N; i++ {
		var err error
		est, err = magic.EstimateVQubitsSchedule(hardware.Default(), 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTableOnce(b, func() {
		fmt.Printf("\nClaim — transversal CNOT latency: %d timestep vs %d for lattice surgery (%.0fx, paper: 6x)\n",
			surgery.CostCNOTTransversal, surgery.CostCNOTSurgery, surgery.SpeedupTransversalVsSurgery())
		fmt.Printf("  15-to-1 dataflow on one stack: %d timesteps with transversal CNOTs (paper's schedule: 110)\n", est.Timesteps)
	})
}

func BenchmarkClaim_TransmonSavings(b *testing.B) {
	var nat, cmp, base layout.Resources
	for i := 0; i < b.N; i++ {
		base = layout.EmbeddingResources(layout.Baseline2D, 5, 0)
		nat = layout.EmbeddingResources(layout.Natural, 5, 10)
		cmp = layout.EmbeddingResources(layout.Compact, 5, 10)
	}
	printTableOnce(b, func() {
		natSave := float64(base.Transmons) * 10 / float64(nat.Transmons)
		cmpSave := float64(nat.Transmons) / float64(cmp.Transmons)
		fmt.Printf("\nClaim — transmon savings at d=5, k=10: Natural %.1fx (paper: ~10x), Compact a further %.1fx (paper: ~2x)\n",
			natSave, cmpSave)
	})
}

// --- Ablations beyond the paper ----------------------------------------------

func BenchmarkAblation_DecoderComparison(b *testing.B) {
	trials := benchTrials()
	var ufRate, blRate float64
	for i := 0; i < b.N; i++ {
		uf, err := montecarlo.Run(montecarlo.Config{
			Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(4e-3), Trials: trials, Seed: 17,
			Decoder: montecarlo.UF,
		})
		if err != nil {
			b.Fatal(err)
		}
		bl, err := montecarlo.Run(montecarlo.Config{
			Scheme: extract.Baseline, Distance: 5, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(4e-3), Trials: trials, Seed: 17,
			Decoder: montecarlo.Blossom,
		})
		if err != nil {
			b.Fatal(err)
		}
		ufRate, blRate = uf.Rate(), bl.Rate()
	}
	printTableOnce(b, func() {
		fmt.Printf("\nAblation — decoder quality (baseline d=5, p=4e-3, %d trials):\n", trials)
		fmt.Printf("  union-find:  %.5f logical error rate\n", ufRate)
		fmt.Printf("  blossom:     %.5f logical error rate (exact minimum-weight matching)\n", blRate)
	})
}

func BenchmarkAblation_SchedulingOverhead(b *testing.B) {
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, scheme := range extract.Schemes {
			e, err := extract.Build(extract.Config{
				Scheme: scheme, Distance: 5, Rounds: 1, Basis: extract.BasisZ,
				Params: hardware.Default(),
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("  %-22s %7.2f us/round  %4d ops/round  %3d loads",
				scheme, e.Circ.Duration()*1e6, e.Circ.NumOps(), e.Circ.CountKind(circuit.OpLoad)))
		}
	}
	printTableOnce(b, func() {
		fmt.Println("\nAblation — per-round extraction cost at d=5 (serialization structure):")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}

// --- Engine speedup: scheduler vs sequential cells vs the scalar path ----------

// BenchmarkSweepRow times a 3-distance x 8-rate Compact-Interleaved
// threshold sweep row three ways: through the shared-pool scheduler
// (one owner per cell, helped by idle workers; per-worker
// decoder/sampler/model reuse, hoisted graph topology), through the PR 1 sequential-cell path (one engine.Run
// per cell with per-cell worker forking and fresh per-cell state), and once
// through the retained pre-batching scalar path (fresh model build per
// cell, one RNG draw per mechanism per shot). The scheduler and sequential
// legs run on warmed engines — structures and topologies prebuilt, the
// steady state a serving engine lives in — so the comparison isolates sweep
// execution; the scalar leg rebuilds everything per cell, as it always did.
// All paths must agree within 3 sigma per cell at equal trial counts; the
// measurements are written to BENCH_sweep.json as the regression baseline.
func BenchmarkSweepRow(b *testing.B) {
	trials := envInt("VLQ_SWEEP_TRIALS", 400)
	ds := []int{3, 5, 7}
	rates := montecarlo.DefaultPhysRates(8)
	scheme := extract.CompactInterleaved
	const seed = 11
	jobs := runtime.GOMAXPROCS(0)

	seqEngine := montecarlo.NewEngine()
	scheduler := sched.New(montecarlo.NewEngine(), sched.Options{Jobs: jobs})
	// Untimed warm-up: build every structure and graph topology on both
	// engines (and fault in the process cold start) before any timing.
	for _, en := range []*montecarlo.Engine{seqEngine, scheduler.Engine()} {
		if _, err := sequentialRow(en, scheme, ds, rates, min(trials, 64), seed); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()

	var schedPts []montecarlo.SweepPoint
	schedDur := time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		var err error
		schedPts, err = scheduler.ThresholdSweep(scheme, ds, rates, hardware.Default(), trials, seed, montecarlo.UF, montecarlo.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d < schedDur {
			schedDur = d
		}
	}
	b.StopTimer()

	printTableOnce(b, func() {
		// Both comparison legs are measured three times, interleaved,
		// taking each leg's minimum — a single alternation is dominated by
		// allocator/cache warmth drift on small rows.
		runSeq := func() ([]montecarlo.SweepPoint, time.Duration) {
			start := time.Now()
			pts, err := sequentialRow(seqEngine, scheme, ds, rates, trials, seed)
			if err != nil {
				b.Fatal(err)
			}
			return pts, time.Since(start)
		}
		runSched := func() ([]montecarlo.SweepPoint, time.Duration) {
			start := time.Now()
			pts, err := scheduler.ThresholdSweep(scheme, ds, rates, hardware.Default(), trials, seed, montecarlo.UF, montecarlo.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return pts, time.Since(start)
		}
		var seqPts []montecarlo.SweepPoint
		seqDur := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			var d time.Duration
			if seqPts, d = runSeq(); d < seqDur {
				seqDur = d
			}
			if schedPts, d = runSched(); d < schedDur {
				schedDur = d
			}
		}

		// Pre-batching scalar reference.
		start := time.Now()
		var refPts []montecarlo.SweepPoint
		for _, d := range ds {
			for _, p := range rates {
				res, err := montecarlo.RunReference(montecarlo.Config{
					Scheme: scheme, Distance: d, Basis: extract.BasisZ,
					Params: hardware.Default().ScaledGatesTo(p), Trials: trials,
					Seed: seed + int64(d)*7919 + int64(p*1e9), Decoder: montecarlo.UF,
				})
				if err != nil {
					b.Fatal(err)
				}
				refPts = append(refPts, montecarlo.SweepPoint{Distance: d, Phys: p, Result: res})
			}
		}
		refDur := time.Since(start)

		inconsistent := 0
		for i := range schedPts {
			s, q, r := schedPts[i].Result, seqPts[i].Result, refPts[i].Result
			if s.Trials != q.Trials {
				b.Errorf("d=%d p=%.4g: %d scheduler trials vs %d sequential", schedPts[i].Distance, schedPts[i].Phys, s.Trials, q.Trials)
			}
			if diff := math.Abs(s.Rate() - q.Rate()); diff > 3*(s.StdErr()+q.StdErr()) {
				inconsistent++
				b.Errorf("d=%d p=%.4g: scheduler %.4f vs sequential %.4f differ beyond 3 sigma",
					schedPts[i].Distance, schedPts[i].Phys, s.Rate(), q.Rate())
			}
			if diff := math.Abs(q.Rate() - r.Rate()); diff > 3*(q.StdErr()+r.StdErr()) {
				inconsistent++
				b.Errorf("d=%d p=%.4g: sequential %.4f vs scalar %.4f differ beyond 3 sigma",
					schedPts[i].Distance, schedPts[i].Phys, q.Rate(), r.Rate())
			}
		}
		fmt.Printf("\nSweep row — %s, %d distances x %d rates, %d trials/cell, jobs=%d:\n", scheme, len(ds), len(rates), trials, jobs)
		fmt.Printf("  scheduler (shared pool): %v\n", schedDur)
		fmt.Printf("  sequential cells:        %v  (scheduler %.2fx)\n", seqDur, float64(seqDur)/float64(schedDur))
		fmt.Printf("  scalar reference:        %v  (sequential %.1fx, target >= 5x)\n", refDur, float64(refDur)/float64(seqDur))
		fmt.Printf("  %d/%d cell comparisons outside 3 sigma\n", inconsistent, 2*len(schedPts))

		baseline := struct {
			Scheme                string  `json:"scheme"`
			Distances             []int   `json:"distances"`
			Rates                 int     `json:"rates"`
			TrialsPerCell         int     `json:"trials_per_cell"`
			Jobs                  int     `json:"jobs"`
			SchedulerNS           int64   `json:"scheduler_ns"`
			SequentialNS          int64   `json:"sequential_ns"`
			ScalarNS              int64   `json:"scalar_ns"`
			SchedulerVsSequential float64 `json:"scheduler_vs_sequential"`
			SequentialVsScalar    float64 `json:"sequential_vs_scalar"`
		}{
			Scheme: scheme.String(), Distances: ds, Rates: len(rates),
			TrialsPerCell: trials, Jobs: jobs,
			SchedulerNS: schedDur.Nanoseconds(), SequentialNS: seqDur.Nanoseconds(), ScalarNS: refDur.Nanoseconds(),
			SchedulerVsSequential: float64(seqDur) / float64(schedDur),
			SequentialVsScalar:    float64(refDur) / float64(seqDur),
		}
		if buf, err := json.MarshalIndent(baseline, "", "  "); err == nil {
			if werr := os.WriteFile("BENCH_sweep.json", append(buf, '\n'), 0o644); werr != nil {
				fmt.Printf("  (could not write BENCH_sweep.json: %v)\n", werr)
			} else {
				fmt.Println("  baseline written to BENCH_sweep.json")
			}
		}
	})
}

// sequentialRow runs a Fig. 11 row cell by cell through Engine.Run, each
// cell forking its own GOMAXPROCS workers — the pre-scheduler sweep path
// that BenchmarkSweepRow holds the pool against.
func sequentialRow(en *montecarlo.Engine, scheme extract.Scheme, ds []int, rates []float64, trials int, seed int64) ([]montecarlo.SweepPoint, error) {
	var pts []montecarlo.SweepPoint
	for _, d := range ds {
		for _, p := range rates {
			res, err := en.Run(montecarlo.ThresholdCellConfig(scheme, d, p, hardware.Default(), trials, seed, montecarlo.UF, montecarlo.SweepOptions{}))
			if err != nil {
				return nil, err
			}
			pts = append(pts, montecarlo.SweepPoint{Distance: d, Phys: p, Result: res})
		}
	}
	return pts, nil
}

// BenchmarkSweepRowDecoders is the per-decoder leg of the sweep-row
// harness: warm-engine per-shot decode cost of the union-find and blossom
// kinds at d in {7, 9, 11} on Compact-Interleaved cells across three
// physical rates — 1e-3 (the paper's hardware operating point), 2e-3
// (below threshold, the regime Fig. 11's scaling is read from), and 4e-3
// (at threshold, maximum event density). Structures and graph topologies
// are prebuilt and each cell runs single-threaded through RunOn with a
// persistent WorkerState (the sweep scheduler's steady state), so the
// comparison isolates sample+decode cost. Every cell is timed both with
// the batch decode pipeline (zero-defect skip + syndrome dedup, the
// production default) and with it disabled (the pre-pipeline path, the
// regression reference); both legs must agree bit for bit on
// failures/trials. Each timing is the median of five reps (the minimum
// rewarded lucky runs and left the recorded numbers ±5% jittery against
// benchguard's 10% gate); per-leg allocations per shot and the decoder
// stage counters ride along. The measurements, the blossom-vs-uf speedups
// at the below-threshold operating row (p=2e-3), and the per-leg pipeline
// speedups are written to BENCH_decoder.json as the regression baseline,
// and one machine-parseable BENCHLINE summary goes to stdout for CI log
// scraping (cmd/benchguard consumes the JSON).
//
//	VLQ_DECODER_TRIALS  trials per timed cell (default 2000)
//	VLQ_CPUPROFILE      write a CPU profile of the timed reps to this file
//	VLQ_MEMPROFILE      write a post-run heap profile to this file
func BenchmarkSweepRowDecoders(b *testing.B) {
	trials := envInt("VLQ_DECODER_TRIALS", 2000)
	ds := []int{7, 9, 11}
	physRates := []float64{1e-3, 2e-3, 4e-3}
	const opPhys = 2e-3 // speedup headline: below threshold, dense enough to matter
	decs := []montecarlo.DecoderKind{montecarlo.UF, montecarlo.Blossom}
	const seed = 23
	scheme := extract.CompactInterleaved

	en := montecarlo.NewEngine()
	cfg := func(phys float64, d int, dec montecarlo.DecoderKind, noPipe bool) montecarlo.Config {
		c := montecarlo.ThresholdCellConfig(scheme, d, phys, hardware.Default(), trials, seed, dec, montecarlo.SweepOptions{})
		c.DisablePipeline = noPipe
		return c
	}
	states := map[montecarlo.DecoderKind]*montecarlo.WorkerState{}
	for _, dec := range decs {
		states[dec] = &montecarlo.WorkerState{}
	}
	// Untimed warm-up: build every structure and topology, fault in the
	// worker states' samplers, decoder arenas, and pipeline tables on both
	// the piped and unpiped paths.
	for _, phys := range physRates {
		for _, d := range ds {
			for _, dec := range decs {
				for _, noPipe := range []bool{false, true} {
					c := cfg(phys, d, dec, noPipe)
					c.Trials = min(trials, 128)
					if _, err := en.RunOn(c, states[dec]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	// Optional profile capture around the timed region: the hot-path
	// profiles that drive matcher optimization, reproducible locally or as
	// a CI artifact. Env vars rather than flags — `go test` owns
	// -cpuprofile/-memprofile for the whole binary; these scope to the
	// timed reps only (warm-up excluded).
	if path := os.Getenv("VLQ_CPUPROFILE"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			b.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	b.ResetTimer()

	type leg struct {
		PhysRate        float64 `json:"phys_rate"`
		Distance        int     `json:"distance"`
		Decoder         string  `json:"decoder"`
		Trials          int     `json:"trials"`
		NsPerShot       float64 `json:"ns_per_shot"`        // pipeline on (production default)
		NsPerShotNoPipe float64 `json:"ns_per_shot_nopipe"` // pipeline disabled (PR 4 path)
		PipelineSpeedup float64 `json:"pipeline_speedup"`
		SkippedFrac     float64 `json:"skipped_frac"`
		DedupFrac       float64 `json:"dedup_frac"`
		Rate            float64 `json:"logical_rate"`
		// AllocsPerShot is the heap allocations per shot across the leg's
		// timed reps (both pipeline legs); the steady-state decode path is
		// allocation-free, so this is per-cell fixed overhead amortized over
		// the trials — benchguard gates it near zero.
		AllocsPerShot float64 `json:"allocs_per_shot"`
		// Stats are the decoder-internal stage counters of one pipeline-on
		// run (deterministic per seed, so identical across reps).
		Stats decoder.DecoderStats `json:"decoder_stats"`
	}
	var legs []leg
	for i := 0; i < b.N; i++ {
		legs = legs[:0]
		for _, phys := range physRates {
			for _, d := range ds {
				for _, dec := range decs {
					const reps = 5 // median-of-5: jitter-robust where min-of-N rewarded lucky runs
					var onT, offT [reps]time.Duration
					var resOn, resOff montecarlo.Result
					var ms0, ms1 runtime.MemStats
					runtime.ReadMemStats(&ms0)
					// Interleave the piped and unpiped reps so allocator
					// and cache warmth drift hits both legs equally.
					for rep := 0; rep < reps; rep++ {
						start := time.Now()
						var err error
						resOn, err = en.RunOn(cfg(phys, d, dec, false), states[dec])
						if err != nil {
							b.Fatal(err)
						}
						onT[rep] = time.Since(start)
						start = time.Now()
						resOff, err = en.RunOn(cfg(phys, d, dec, true), states[dec])
						if err != nil {
							b.Fatal(err)
						}
						offT[rep] = time.Since(start)
					}
					runtime.ReadMemStats(&ms1)
					if resOn.Trials != resOff.Trials || resOn.Failures != resOff.Failures {
						b.Errorf("d=%d p=%g %s: pipeline on %d/%d failures/trials, off %d/%d — must be bit-identical",
							d, phys, dec, resOn.Failures, resOn.Trials, resOff.Failures, resOff.Trials)
					}
					slices.Sort(onT[:])
					slices.Sort(offT[:])
					medOn, medOff := onT[reps/2], offT[reps/2]
					n := float64(resOn.Trials)
					legs = append(legs, leg{
						PhysRate: phys, Distance: d, Decoder: string(dec), Trials: resOn.Trials,
						NsPerShot:       float64(medOn.Nanoseconds()) / n,
						NsPerShotNoPipe: float64(medOff.Nanoseconds()) / n,
						PipelineSpeedup: float64(medOff) / float64(medOn),
						SkippedFrac:     float64(resOn.Skipped) / n,
						DedupFrac:       float64(resOn.DedupHits) / n,
						Rate:            resOn.Rate(),
						AllocsPerShot:   float64(ms1.Mallocs-ms0.Mallocs) / (n * reps * 2),
						Stats:           resOn.Stats,
					})
				}
			}
		}
	}
	b.StopTimer()
	if path := os.Getenv("VLQ_MEMPROFILE"); path != "" {
		runtime.GC()
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}

	printTableOnce(b, func() {
		fmt.Printf("\nDecoder leg — %s, %d trials/cell, warm engine, pipeline on vs off:\n", scheme, trials)
		speedups := map[int]float64{}
		pipeMin, pipeMax := math.MaxFloat64, 0.0
		for _, phys := range physRates {
			fmt.Printf("  p=%g:\n", phys)
			for _, d := range ds {
				var uf, bl leg
				for _, l := range legs {
					if l.Distance != d || l.PhysRate != phys {
						continue
					}
					if l.Decoder == string(montecarlo.UF) {
						uf = l
					} else {
						bl = l
					}
				}
				sp := uf.NsPerShot / bl.NsPerShot
				if phys == opPhys {
					speedups[d] = sp
				}
				if phys < 4e-3 { // below-threshold legs: the acceptance regime
					for _, l := range []leg{uf, bl} {
						pipeMin = min(pipeMin, l.PipelineSpeedup)
						pipeMax = max(pipeMax, l.PipelineSpeedup)
					}
				}
				fmt.Printf("    d=%-3d uf %8.0f ns/shot (nopipe %8.0f, %.2fx, skip %.0f%% dedup %.0f%%)   blossom %8.0f ns/shot (nopipe %8.0f, %.2fx)   bl-vs-uf %.2fx\n",
					d, uf.NsPerShot, uf.NsPerShotNoPipe, uf.PipelineSpeedup, 100*uf.SkippedFrac, 100*uf.DedupFrac,
					bl.NsPerShot, bl.NsPerShotNoPipe, bl.PipelineSpeedup, sp)
			}
		}
		fmt.Printf("  targets: blossom >= 1.5x union-find at d=11, p=%g (got %.2fx); pipeline >= 2x on below-threshold legs (got %.2fx-%.2fx)\n",
			opPhys, speedups[11], pipeMin, pipeMax)
		// One-line machine-parseable summary for CI log scraping; the full
		// per-leg breakdown is BENCH_decoder.json.
		fmt.Printf("BENCHLINE bench=decoder scheme=%s trials=%d blossom_vs_uf_d11_p%g=%.3f pipeline_speedup_min=%.3f pipeline_speedup_max=%.3f legs=%d\n",
			scheme, trials, opPhys, speedups[11], pipeMin, pipeMax, len(legs))

		baseline := struct {
			Scheme             string          `json:"scheme"`
			OpPhysRate         float64         `json:"op_phys_rate"`
			TrialsPerCell      int             `json:"trials_per_cell"`
			Legs               []leg           `json:"legs"`
			Speedups           map[int]float64 `json:"blossom_vs_uf_speedup"`
			PipelineSpeedupMin float64         `json:"pipeline_speedup_min_below_threshold"`
			PipelineSpeedupMax float64         `json:"pipeline_speedup_max_below_threshold"`
		}{
			Scheme: scheme.String(), OpPhysRate: opPhys, TrialsPerCell: trials,
			Legs: legs, Speedups: speedups,
			PipelineSpeedupMin: pipeMin, PipelineSpeedupMax: pipeMax,
		}
		if buf, err := json.MarshalIndent(baseline, "", "  "); err == nil {
			if werr := os.WriteFile("BENCH_decoder.json", append(buf, '\n'), 0o644); werr != nil {
				fmt.Printf("  (could not write BENCH_decoder.json: %v)\n", werr)
			} else {
				fmt.Println("  baseline written to BENCH_decoder.json")
			}
		}
	})
}

// BenchmarkSweepRowSkewed measures the makespan win of the cost-aware
// scheduler on the workload that motivated it: a skewed grid where one
// d=13 cell with a deep shot budget dominates a row of smaller cells (d in
// {3..11}), on an 8-worker pool. Three legs run the identical grid:
//
//	sequential  width-1 pool (no intra-sweep parallelism)
//	fifo        8 workers, submission-order queue — the pre-cost-model
//	            scheduler, the baseline the >= 1.3x target is against
//	ordered     8 workers, longest-cell-first; workers idle at the tail
//	            help decode the huge cell's batches
//
// All three legs must agree bit for bit, and the ordered leg must
// reproduce itself bit for bit at width 2 (the determinism half of the
// acceptance bar; the montecarlo golden tests pin the counts themselves).
// Measurements are written to BENCH_sched.json as the regression baseline.
//
//	VLQ_SKEW_TRIALS  trials per small cell (default 400; the huge cell runs 16x)
func BenchmarkSweepRowSkewed(b *testing.B) {
	smallTrials := envInt("VLQ_SKEW_TRIALS", 400)
	hugeTrials := 16 * smallTrials
	const (
		workers  = 8
		seed     = 29
		hugeDist = 13
		hugePhys = 2e-3
	)
	scheme := extract.CompactInterleaved
	smallDs := []int{3, 5, 7, 9, 11}
	rates := montecarlo.DefaultPhysRates(6)

	buildJobs := func() []sched.Job {
		jobs := sched.ThresholdJobs(scheme, smallDs, rates, hardware.Default(), smallTrials, seed, montecarlo.UF, montecarlo.SweepOptions{})
		huge := montecarlo.ThresholdCellConfig(scheme, hugeDist, hugePhys, hardware.Default(), hugeTrials, seed, montecarlo.UF, montecarlo.SweepOptions{})
		return append(jobs, sched.Job{Cfg: huge, Tag: sched.ThresholdCell{Scheme: scheme, Distance: hugeDist, Phys: hugePhys}})
	}

	en := montecarlo.NewEngine()
	// Untimed warm-up: build every structure and graph topology once.
	if _, err := sched.New(en, sched.Options{Jobs: workers}).Run(func() []sched.Job {
		jobs := buildJobs()
		for i := range jobs {
			jobs[i].Cfg.Trials = min(jobs[i].Cfg.Trials, 64)
		}
		return jobs
	}()); err != nil {
		b.Fatal(err)
	}

	runLeg := func(opts sched.Options) ([]sched.CellResult, time.Duration) {
		start := time.Now()
		results, err := sched.New(en, opts).Run(buildJobs())
		if err != nil {
			b.Fatal(err)
		}
		return results, time.Since(start)
	}
	b.ResetTimer()

	// The b.N loop feeds only the benchmark's ns/op; the reported ratios
	// come from the equal-sample comparison below.
	ordOpts := sched.Options{Jobs: workers}
	for i := 0; i < b.N; i++ {
		runLeg(ordOpts)
	}
	b.StopTimer()

	printTableOnce(b, func() {
		var seqPts, fifoPts, ordPts []sched.CellResult
		// The recorded ratios compare equal sample counts: every leg's
		// duration is the min of the 3 interleaved runs below, independent
		// of how many extra ordered runs the b.N loop above performed.
		seqDur := time.Duration(math.MaxInt64)
		fifoDur := time.Duration(math.MaxInt64)
		ordDur := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			var d time.Duration
			if seqPts, d = runLeg(sched.Options{Jobs: 1}); d < seqDur {
				seqDur = d
			}
			if fifoPts, d = runLeg(sched.Options{Jobs: workers, Queue: sched.OrderFIFO}); d < fifoDur {
				fifoDur = d
			}
			if ordPts, d = runLeg(ordOpts); d < ordDur {
				ordDur = d
			}
		}

		// Identity checks: every leg agrees bit for bit, and the ordered leg
		// reproduces itself at a different pool width.
		for i := range seqPts {
			s, f, o := seqPts[i].Result, fifoPts[i].Result, ordPts[i].Result
			if s.Trials != f.Trials || s.Failures != f.Failures || s.Trials != o.Trials || s.Failures != o.Failures {
				b.Errorf("cell %d: sequential %d/%d, fifo %d/%d, ordered %d/%d failures/trials diverge",
					i, s.Failures, s.Trials, f.Failures, f.Trials, o.Failures, o.Trials)
			}
		}
		narrow, err := sched.New(en, sched.Options{Jobs: 2}).Run(buildJobs())
		if err != nil {
			b.Fatal(err)
		}
		identical := true
		for i := range ordPts {
			a, c := ordPts[i].Result, narrow[i].Result
			if a.Counts != c.Counts {
				identical = false
				b.Errorf("cell %d: ordered at width %d gave %d/%d failures/trials, width 2 gave %d/%d",
					i, workers, a.Failures, a.Trials, c.Failures, c.Trials)
			}
		}

		vsFifo := float64(fifoDur) / float64(ordDur)
		procs := runtime.GOMAXPROCS(0)
		fmt.Printf("\nSkewed sweep row — %s, d in %v x %d rates at %d trials + one d=%d cell at %d trials, %d workers (GOMAXPROCS=%d):\n",
			scheme, smallDs, len(rates), smallTrials, hugeDist, hugeTrials, workers, procs)
		fmt.Printf("  sequential:  %v\n", seqDur)
		fmt.Printf("  fifo pool:   %v\n", fifoDur)
		fmt.Printf("  ordered:     %v  (vs fifo %.2fx; target >= 1.3x)\n", ordDur, vsFifo)
		fmt.Printf("  results bit-identical across widths: %v\n", identical)
		switch {
		case procs == 1:
			fmt.Printf("  NOTE: 1 CPU available — the %d-worker pool is fully serialized, so makespan\n", workers)
			fmt.Println("  ratios here measure overhead, not the ordering win; run on a multicore host for the target.")
		case procs < workers:
			fmt.Printf("  NOTE: %d CPUs < %d workers — the ordering win is real but bounded by the core\n", procs, workers)
			fmt.Printf("  count; run on >= %d cores for the full ratio.\n", workers)
		}

		baseline := struct {
			Scheme          string  `json:"scheme"`
			SmallDistances  []int   `json:"small_distances"`
			Rates           int     `json:"rates"`
			SmallTrials     int     `json:"small_trials"`
			HugeDistance    int     `json:"huge_distance"`
			HugePhysRate    float64 `json:"huge_phys_rate"`
			HugeTrials      int     `json:"huge_trials"`
			Workers         int     `json:"workers"`
			GoMaxProcs      int     `json:"gomaxprocs"`
			SequentialNS    int64   `json:"sequential_ns"`
			FifoNS          int64   `json:"fifo_ns"`
			OrderedNS       int64   `json:"ordered_ns"`
			OrderedVsFifo   float64 `json:"ordered_vs_fifo"`
			IdenticalAcross bool    `json:"bit_identical_across_widths"`
		}{
			Scheme: scheme.String(), SmallDistances: smallDs, Rates: len(rates),
			SmallTrials: smallTrials, HugeDistance: hugeDist, HugePhysRate: hugePhys, HugeTrials: hugeTrials,
			Workers: workers, GoMaxProcs: procs,
			SequentialNS: seqDur.Nanoseconds(), FifoNS: fifoDur.Nanoseconds(), OrderedNS: ordDur.Nanoseconds(),
			OrderedVsFifo: vsFifo, IdenticalAcross: identical,
		}
		if buf, err := json.MarshalIndent(baseline, "", "  "); err == nil {
			if werr := os.WriteFile("BENCH_sched.json", append(buf, '\n'), 0o644); werr != nil {
				fmt.Printf("  (could not write BENCH_sched.json: %v)\n", werr)
			} else {
				fmt.Println("  baseline written to BENCH_sched.json")
			}
		}
	})
}

// BenchmarkSweepRowRare is the rare-event leg of the sweep-row harness:
// shots-to-target-relative-error of importance-sampled estimation vs brute
// force at the deep sub-threshold operating point d=7, p=1e-3. Every leg
// runs the same cell through RunOn with a pinned seed — boost 1 is the
// brute-force reference (the weighted sampler with boost 1 consumes the
// identical RNG stream as the plain sampler and carries unit weights), the
// boosted legs draw from the inflated proposal and reweight. Each leg
// reports its relative error at the fixed shot budget; shots-to-target
// scales as (relerr/target)^2 x shots, so the ratio of those is the
// shots-to-target gain. Estimates must agree with the brute leg within
// 3 sigma (the estimator is unbiased at any boost).
//
// HONEST MEASUREMENT: a naive rare-event argument promises ~b^((d+1)/2)
// fewer shots (boosting every fault makes ~4-coincident-fault failures
// b^4 more likely at d=7), suggesting 100x-class gains. That does not
// survive contact with the weight variance: the surface-code cell fires
// hundreds of mechanisms per shot, so the likelihood-ratio spread grows
// exponentially in the total expected fire count and caps the profitable
// boost near 1.5-2. The measured gain at d=7 p=1e-3 is ~2.3x
// shots-to-target, deflating to ~1.4x in wall-clock because boosted shots
// carry denser syndromes and decode slower (see BENCH_rare.json) — real
// but modest. The mode's decisive value is
// qualitative instead: at fixed budgets where brute force records zero
// failures (d >= 11 at p=1e-3 in ~30k shots), the weighted estimator still
// returns a nonzero estimate with a quantified error bar, which no amount
// of honest zero-counting provides.
//
//	VLQ_RARE_TRIALS  shots per leg (default 65536)
func BenchmarkSweepRowRare(b *testing.B) {
	trials := envInt("VLQ_RARE_TRIALS", 65536)
	const (
		d      = 7
		phys   = 1e-3
		seed   = 4242
		target = 0.10 // headline rel-err the shots-to numbers are quoted at
	)
	boosts := []float64{1, 1.5, 2}
	scheme := extract.Baseline

	en := montecarlo.NewEngine()
	var st montecarlo.WorkerState
	mkCfg := func(boost float64) montecarlo.Config {
		return montecarlo.ThresholdCellConfig(scheme, d, phys, hardware.Default(),
			trials, seed, montecarlo.UF, montecarlo.SweepOptions{RareEvent: true, Boost: boost})
	}
	// Untimed warm-up builds the structure, graph, and both models once.
	if _, err := en.RunOn(mkCfg(boosts[0]), &st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.RunOn(mkCfg(1.5), &st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	printTableOnce(b, func() {
		type rareLeg struct {
			Boost         float64 `json:"boost"`
			Trials        int     `json:"trials"`
			Failures      int     `json:"failures"`
			Estimate      float64 `json:"estimate"`
			RelErr        float64 `json:"rel_err"`
			ESS           float64 `json:"ess"`
			FailESS       float64 `json:"fail_ess"`
			NsPerShot     float64 `json:"ns_per_shot"`
			ShotsToTarget float64 `json:"shots_to_target"`
			// ShotsGain is the headline: brute-force shots-to-target divided
			// by this leg's. WallGain deflates it by the per-shot cost ratio
			// (boosted shots carry denser syndromes and decode slower), so
			// sampling overhead cannot hide in the shot count.
			ShotsGain float64 `json:"shots_gain_vs_brute"`
			WallGain  float64 `json:"wall_gain_vs_brute"`
		}
		legs := make([]rareLeg, 0, len(boosts))
		for _, boost := range boosts {
			cfg := mkCfg(boost)
			var res montecarlo.Result
			dur := time.Duration(math.MaxInt64)
			for rep := 0; rep < 3; rep++ { // min of 3: the cell is deterministic, only timing jitters
				start := time.Now()
				r, err := en.RunOn(cfg, &st)
				if err != nil {
					b.Fatal(err)
				}
				if el := time.Since(start); el < dur {
					dur = el
				}
				res = r
			}
			w := res.Weighted
			relErr := w.RelErr()
			leg := rareLeg{
				Boost: boost, Trials: res.Trials, Failures: res.Failures,
				Estimate: w.Estimate(), RelErr: relErr, ESS: w.ESS(), FailESS: w.FailESS(),
				NsPerShot: float64(dur.Nanoseconds()) / float64(res.Trials),
			}
			if relErr > 0 && !math.IsInf(relErr, 1) {
				leg.ShotsToTarget = float64(trials) * (relErr / target) * (relErr / target)
			}
			legs = append(legs, leg)
		}
		brute := legs[0]
		for i := range legs {
			if legs[i].ShotsToTarget > 0 && brute.ShotsToTarget > 0 {
				legs[i].ShotsGain = brute.ShotsToTarget / legs[i].ShotsToTarget
				legs[i].WallGain = (brute.ShotsToTarget * brute.NsPerShot) /
					(legs[i].ShotsToTarget * legs[i].NsPerShot)
			}
			// Unbiasedness cross-check against the brute leg.
			if i > 0 {
				se := legs[i].Estimate*legs[i].RelErr + brute.Estimate*brute.RelErr
				if diff := math.Abs(legs[i].Estimate - brute.Estimate); se > 0 && diff > 3*se {
					b.Errorf("boost %g estimate %.3g vs brute %.3g differ beyond 3 sigma",
						legs[i].Boost, legs[i].Estimate, brute.Estimate)
				}
			}
		}

		fmt.Printf("\nRare-event sweep — %s d=%d p=%g, %d shots/leg, shots-to %.0f%% rel err:\n",
			scheme, d, phys, trials, 100*target)
		for _, l := range legs {
			fmt.Printf("  boost %-4g %4d failures  est %.3g  relerr %.3f  ESS %8.0f  failESS %6.1f  %6.0f ns/shot  shots-to %9.0f  gain %.2fx shots / %.2fx wall\n",
				l.Boost, l.Failures, l.Estimate, l.RelErr, l.ESS, l.FailESS, l.NsPerShot, l.ShotsToTarget, l.ShotsGain, l.WallGain)
		}
		best := legs[0]
		for _, l := range legs[1:] {
			if l.ShotsGain > best.ShotsGain {
				best = l
			}
		}
		fmt.Printf("  best gain %.2fx shots-to-target (%.2fx wall-clock) at boost %g — global boosting caps near 2x here; the mode's value below this band is nonzero estimates where brute force sees none\n",
			best.ShotsGain, best.WallGain, best.Boost)
		fmt.Printf("BENCHLINE bench=rare scheme=%s d=%d p=%g trials=%d target=%.2f best_boost=%g shots_gain_b1.5=%.3f shots_gain_b2=%.3f wall_gain_b1.5=%.3f wall_gain_b2=%.3f\n",
			scheme, d, phys, trials, target, best.Boost, legs[1].ShotsGain, legs[2].ShotsGain, legs[1].WallGain, legs[2].WallGain)

		baseline := struct {
			Scheme       string    `json:"scheme"`
			Distance     int       `json:"distance"`
			PhysRate     float64   `json:"phys_rate"`
			TargetRelErr float64   `json:"target_rel_err"`
			Trials       int       `json:"trials"`
			Legs         []rareLeg `json:"legs"`
		}{
			Scheme: scheme.String(), Distance: d, PhysRate: phys,
			TargetRelErr: target, Trials: trials, Legs: legs,
		}
		if buf, err := json.MarshalIndent(baseline, "", "  "); err == nil {
			if werr := os.WriteFile("BENCH_rare.json", append(buf, '\n'), 0o644); werr != nil {
				fmt.Printf("  (could not write BENCH_rare.json: %v)\n", werr)
			} else {
				fmt.Println("  baseline written to BENCH_rare.json")
			}
		}
	})
}

// --- Microbenchmarks (real performance measurements) ---------------------------

func BenchmarkMicro_DEMSampler(b *testing.B) {
	exp, err := extract.Build(extract.Config{
		Scheme: extract.CompactInterleaved, Distance: 5, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(4e-3),
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := montecarlo.Run(montecarlo.Config{
		Scheme: extract.CompactInterleaved, Distance: 5, Basis: extract.BasisZ,
		Params: hardware.Default().ScaledGatesTo(4e-3), Trials: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := montecarlo.Run(montecarlo.Config{
			Scheme: extract.CompactInterleaved, Distance: 5, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(4e-3), Trials: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = exp
}

func BenchmarkMicro_ExperimentBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := extract.Build(extract.Config{
			Scheme: extract.CompactInterleaved, Distance: 5, Basis: extract.BasisZ,
			Params: hardware.Default(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
