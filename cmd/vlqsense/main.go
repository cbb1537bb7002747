// Command vlqsense reproduces the Fig. 12 sensitivity studies: logical error
// rate of Compact-Interleaved at the 2e-3 operating point while one hardware
// parameter sweeps its range (SC-SC / load-store / SC-mode gate error,
// cavity or transmon T1, load-store duration, cavity size).
//
// Sweep cells are drained through the shared-pool scheduler (-jobs controls
// the width); with -csv or -json each cell's row streams to stdout the
// moment it finishes, so long sweeps emit results incrementally. Results
// are deterministic for a given seed regardless of -jobs.
//
// Example:
//
//	vlqsense -panel cavity-t1 -distances 3,5 -trials 10000
//	vlqsense -panel all -jobs 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	panel := flag.String("panel", "all", "panel: sc-sc-error, load-store-error, sc-mode-error, cavity-t1, transmon-t1, load-store-duration, cavity-size, or all")
	distances := flag.String("distances", "3,5", "comma-separated code distances")
	values := flag.String("values", "", "comma-separated parameter values (default: paper's range)")
	nvalues := flag.Int("nvalues", 5, "number of grid values when -values is empty")
	trials := flag.Int("trials", 3000, "Monte-Carlo trials per point (a cap when -target-failures is set; 0 = the HTTP service's default of 2000)")
	target := flag.Int("target-failures", 0, "end each point once this many failures accumulate (0 = fixed trial count)")
	seed := flag.Int64("seed", 1, "random seed")
	dec := flag.String("decoder", "uf", "decoder: uf or blossom")
	jobs := flag.Int("jobs", 0, "scheduler pool width: sweep cells decoded concurrently (0 = GOMAXPROCS)")
	rare := flag.Bool("rare-event", false, "importance-sampled estimation: draw faults from a boosted proposal and report likelihood-ratio-weighted rates with error bars (for deep sub-threshold points)")
	boost := flag.Float64("boost", 0, fmt.Sprintf("proposal boost factor for -rare-event: each fault fires boost times as often (0 = default %g; 1 = plain sampling)", montecarlo.DefaultBoost))
	targetRelErr := flag.Float64("target-rel-err", 0, "end each -rare-event point once its relative standard error drops below this (0 = fixed trial count)")
	csv := flag.Bool("csv", false, "stream CSV rows as cells finish instead of printing a table")
	jsonOut := flag.Bool("json", false, "stream one JSON object per cell as it finishes")
	flag.Parse()
	if *csv && *jsonOut {
		fatal(fmt.Errorf("-csv and -json are mutually exclusive"))
	}

	panels := montecarlo.Panels
	if *panel != "all" {
		panels = []montecarlo.Panel{montecarlo.Panel(*panel)}
	}
	ds, err := parseInts(*distances)
	if err != nil {
		fatal(err)
	}
	var custom []float64
	if *values != "" {
		if custom, err = parseFloats(*values); err != nil {
			fatal(err)
		}
	}
	// serve.BuildCells validates and expands every panel before any cell
	// runs — the check POST /v1/sweeps makes, so the CLI rejects exactly
	// what the service rejects.
	vals := make([][]float64, len(panels))
	grids := make([][]sched.Job, len(panels))
	for i, pn := range panels {
		vals[i] = custom
		if vals[i] == nil {
			vals[i] = pn.DefaultValues(*nvalues)
		}
		grids[i], err = serve.BuildCells(serve.SweepRequest{
			Type: "sensitivity", Panel: string(pn), Distances: ds, Values: vals[i],
			Trials: *trials, Seed: *seed, Decoder: *dec,
			TargetFailures: *target, RareEvent: *rare, Boost: *boost, TargetRelErr: *targetRelErr,
		})
		if err != nil {
			fatal(err)
		}
	}

	if *csv {
		fmt.Println("panel,value,distance,logical_rate,stderr,trials")
	}
	enc := json.NewEncoder(os.Stdout)
	stream := func(r sched.CellResult) {
		if r.Err != nil {
			return // surfaced by Run's summary error
		}
		cell := r.Job.Tag.(sched.SensitivityCell)
		switch {
		case *csv:
			fmt.Printf("%s,%g,%d,%g,%g,%d\n", cell.Panel, cell.Value, cell.Distance,
				r.Result.Rate(), r.Result.StdErr(), r.Result.Trials)
		case *jsonOut:
			enc.Encode(serve.ToCellRecord(r))
		}
	}

	// One engine for the whole invocation: probability and coherence-time
	// panels share one structure (and graph topology) per distance; one
	// shared worker pool drains each panel's grid, longest-cell-first, idle
	// workers helping decode the cells still running.
	opts := sched.Options{Jobs: *jobs}
	if *csv || *jsonOut {
		opts.OnResult = stream
	}
	scheduler := sched.New(montecarlo.NewEngine(), opts)
	for i, cells := range grids {
		results, err := scheduler.Run(cells)
		if err != nil {
			fatal(fmt.Errorf("sensitivity %s: %w", panels[i], err))
		}
		if *csv || *jsonOut {
			continue // rows already streamed
		}
		fmt.Printf("\n== Fig. 12 panel: %s (compact-interleaved at p=2e-3, trials/point=%d) ==\n", panels[i], *trials)
		fmt.Printf("%-12s", "value \\ d")
		for _, d := range ds {
			fmt.Printf("  d=%-9d", d)
		}
		fmt.Println()
		for _, v := range vals[i] {
			fmt.Printf("%-12.3g", v)
			for _, d := range ds {
				for _, r := range results {
					if cell := r.Job.Tag.(sched.SensitivityCell); cell.Distance == d && cell.Value == v {
						fmt.Printf("  %-11.5f", r.Result.Rate())
					}
				}
			}
			fmt.Println()
		}
	}
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
	fmt.Fprintln(os.Stderr, "vlqsense:", err)
	os.Exit(1)
}
