// Command vlqthreshold reproduces the Fig. 11 error-threshold experiments:
// logical error rate vs physical error rate over several code distances, for
// any of the five syndrome-extraction setups, with a crossing-point
// threshold estimate.
//
// Sweep cells are drained through the shared-pool scheduler (-jobs controls
// the width); with -csv or -json each cell's row streams to stdout the
// moment it finishes, so long sweeps emit results incrementally. Results
// are deterministic for a given seed regardless of -jobs.
//
// Example:
//
//	vlqthreshold -scheme compact-interleaved -distances 3,5,7 -trials 20000
//	vlqthreshold -scheme all -jobs 8 -csv -target-failures 200 -trials 200000
//	vlqthreshold -scheme baseline -distances 9 -rates 1e-3 -rare-event -boost 1.5 -trials 100000 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	scheme := flag.String("scheme", "all", "extraction scheme: baseline, natural-all-at-once, natural-interleaved, compact-all-at-once, compact-interleaved, or all")
	distances := flag.String("distances", "3,5,7", "comma-separated code distances")
	rates := flag.String("rates", "", "comma-separated physical error rates (default: log grid)")
	nrates := flag.Int("nrates", 6, "number of grid rates when -rates is empty")
	trials := flag.Int("trials", 4000, "Monte-Carlo trials per point (a cap when -target-failures is set)")
	target := flag.Int("target-failures", 0, "end each point once this many failures accumulate (0 = fixed trial count)")
	seed := flag.Int64("seed", 1, "random seed")
	dec := flag.String("decoder", "uf", "decoder: uf, blossom, mwpm, or exact")
	jobs := flag.Int("jobs", 0, "scheduler pool width: sweep cells decoded concurrently (0 = GOMAXPROCS)")
	pipeline := flag.Bool("decode-pipeline", true, "batch decode pipeline: skip zero-defect shots and dedup repeated syndromes before the matcher (bit-identical results; false = decode every shot)")
	rare := flag.Bool("rare-event", false, "importance-sampled estimation: draw faults from a boosted proposal and report likelihood-ratio-weighted rates with error bars (for deep sub-threshold points)")
	boost := flag.Float64("boost", 0, fmt.Sprintf("proposal boost factor for -rare-event: each fault fires boost times as often (0 = default %g; 1 = plain sampling)", montecarlo.DefaultBoost))
	targetRelErr := flag.Float64("target-rel-err", 0, "end each -rare-event point once its relative standard error drops below this (0 = fixed trial count)")
	csv := flag.Bool("csv", false, "stream CSV rows as cells finish instead of printing a table")
	jsonOut := flag.Bool("json", false, "stream one JSON object per cell as it finishes")
	flag.Parse()
	if *csv && *jsonOut {
		fatal(fmt.Errorf("-csv and -json are mutually exclusive"))
	}
	if !*rare && (*boost != 0 || *targetRelErr != 0) {
		fatal(fmt.Errorf("-boost and -target-rel-err require -rare-event"))
	}
	if *rare && *target != 0 {
		fatal(fmt.Errorf("-target-failures does not apply to -rare-event runs; use -target-rel-err"))
	}

	var schemes []extract.Scheme
	if *scheme == "all" {
		schemes = extract.Schemes
	} else {
		s, err := schemeByName(*scheme)
		if err != nil {
			fatal(err)
		}
		schemes = []extract.Scheme{s}
	}
	ds, err := parseInts(*distances)
	if err != nil {
		fatal(err)
	}
	var ps []float64
	if *rates == "" {
		ps = montecarlo.DefaultPhysRates(*nrates)
	} else if ps, err = parseFloats(*rates); err != nil {
		fatal(err)
	}

	if *csv {
		fmt.Println("scheme,distance,phys_rate,logical_rate,stderr,trials")
	}
	enc := json.NewEncoder(os.Stdout)
	stream := func(r sched.CellResult) {
		if r.Err != nil {
			return // surfaced by Run's summary error
		}
		cell := r.Job.Tag.(sched.ThresholdCell)
		switch {
		case *csv:
			fmt.Printf("%s,%d,%g,%g,%g,%d\n", cell.Scheme, cell.Distance, cell.Phys,
				r.Result.Rate(), r.Result.StdErr(), r.Result.Trials)
		case *jsonOut:
			enc.Encode(serve.ToCellRecord(r))
		}
	}

	// One engine for the whole invocation: every (scheme, distance) builds
	// its circuit, fault structure, and graph topology once, shared across
	// all rates; one shared worker pool drains each scheme's grid,
	// longest-cell-first, idle workers helping decode the cells still
	// running.
	opts := sched.Options{Jobs: *jobs}
	if *csv || *jsonOut {
		opts.OnResult = stream
	}
	scheduler := sched.New(montecarlo.NewEngine(), opts)
	for _, sch := range schemes {
		pts, err := scheduler.ThresholdSweep(sch, ds, ps, hardware.Default(), *trials, *seed,
			montecarlo.DecoderKind(*dec), montecarlo.SweepOptions{
				TargetFailures: *target, DisablePipeline: !*pipeline,
				RareEvent: *rare, Boost: *boost, TargetRelErr: *targetRelErr,
			})
		if err != nil {
			fatal(err)
		}
		if *csv || *jsonOut {
			continue // rows already streamed
		}
		fmt.Printf("\n== %s (trials/point=%d, decoder=%s) ==\n", sch, *trials, *dec)
		fmt.Printf("%-8s", "p \\ d")
		for _, d := range ds {
			fmt.Printf("  d=%-9d", d)
		}
		fmt.Println()
		for _, p := range ps {
			fmt.Printf("%-8.2g", p)
			for _, d := range ds {
				for _, pt := range pts {
					if pt.Distance == d && pt.Phys == p {
						fmt.Printf("  %-11.5f", pt.Result.Rate())
					}
				}
			}
			fmt.Println()
		}
		if th := montecarlo.EstimateThreshold(pts); th > 0 {
			fmt.Printf("estimated threshold p_th ~= %.4f (paper: 0.008-0.009)\n", th)
		} else {
			fmt.Println("no threshold crossing bracketed by this grid")
		}
	}
}

func schemeByName(name string) (extract.Scheme, error) {
	for _, s := range extract.Schemes {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vlqthreshold:", err)
	os.Exit(1)
}
