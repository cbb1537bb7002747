// Package sweepcli runs the sweeps of vlqthreshold (Fig. 11) and vlqsense
// (Fig. 12). Each flag sets the serve.SweepRequest field of its JSON name
// ("_" as "-"); serve.BuildCells validates and expands the grids.
package sweepcli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/extract"
	"repro/internal/montecarlo"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Command is one sweep command: its name, sweep Type and defaults, and its
// output. A CSV row and a table row's label format a cell's scheme, panel,
// distance, rate and value; a title, a grid's key, trials and decoder.
type Command struct {
	Name, verb, csv, row, title, corner, label string
	Defaults                                   serve.SweepRequest
}

// Threshold is vlqthreshold; Sensitivity is vlqsense.
var (
	Threshold = Command{Name: "vlqthreshold", verb: "sweep", csv: "scheme,distance,phys_rate", row: "%[1]s,%[3]d,%[4]g", title: "%s (trials/point=%d, decoder=%s)", corner: "p \\ d   ", label: "%-8.2[4]g",
		Defaults: serve.SweepRequest{Type: "threshold", Scheme: "all", Distances: []int{3, 5, 7}, Trials: 4000, Seed: 1, Decoder: "uf"}}
	Sensitivity = Command{Name: "vlqsense", verb: "sensitivity", csv: "panel,value,distance", row: "%[2]s,%[5]g,%[3]d", title: "Fig. 12 panel: %[1]s (compact-interleaved at p=2e-3, trials/point=%[2]d)", corner: "value \\ d   ", label: "%-12.3[5]g",
		Defaults: serve.SweepRequest{Type: "sensitivity", Panel: "all", Distances: []int{3, 5}, Trials: 3000, Seed: 1, Decoder: "uf"}}
)

// Main runs the command on the process arguments; an error exits 1.
func (c Command) Main() {
	if err := c.Run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		os.Exit(1)
	}
}

// Run drains every scheme's or panel's grid through one scheduler pool on
// one engine: a table per grid, or -csv/-json rows as cells finish.
func (c Command) Run(args []string, stdout, stderr io.Writer) (err error) {
	req, n, csv, jsonOut, sense := c.Defaults, 0, false, false, c.Defaults.Type == "sensitivity"
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	key, all := &req.Scheme, words(extract.Schemes)
	if sense {
		key, all = &req.Panel, words(montecarlo.Panels)
		fs.StringVar(key, "panel", *key, "panel: sc-sc-error, load-store-error, sc-mode-error, cavity-t1, transmon-t1, load-store-duration, cavity-size, or all")
		listVar(fs, &req.Values, "values", "comma-separated parameter values (default: paper's range)", parseFloat)
		fs.IntVar(&n, "nvalues", 5, "number of grid values when -values is empty")
	} else {
		fs.StringVar(key, "scheme", *key, "extraction scheme: baseline, natural-all-at-once, natural-interleaved, compact-all-at-once, compact-interleaved, or all")
		listVar(fs, &req.Rates, "rates", "comma-separated physical error rates (default: log grid)", parseFloat)
		fs.IntVar(&n, "nrates", 6, "number of grid rates when -rates is empty")
	}
	listVar(fs, &req.Distances, "distances", "comma-separated code distances", strconv.Atoi)
	fs.IntVar(&req.Trials, "trials", req.Trials, "Monte-Carlo trials per point (a cap when -target-failures is set; 0 = the HTTP service's default of 2000)")
	fs.IntVar(&req.TargetFailures, "target-failures", 0, "end each point once this many failures accumulate (0 = fixed trial count)")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "random seed")
	fs.StringVar(&req.Decoder, "decoder", req.Decoder, "decoder: uf or blossom")
	fs.IntVar(&req.Jobs, "jobs", 0, "scheduler pool width: sweep cells decoded concurrently (0 = GOMAXPROCS)")
	fs.BoolVar(&req.RareEvent, "rare-event", false, "importance-sampled estimation: draw faults from a boosted proposal and report likelihood-ratio-weighted rates with error bars (for deep sub-threshold points)")
	fs.Float64Var(&req.Boost, "boost", 0, fmt.Sprintf("proposal boost factor for -rare-event: each fault fires boost times as often (0 = default %g; 1 = plain sampling)", montecarlo.DefaultBoost))
	fs.Float64Var(&req.TargetRelErr, "target-rel-err", 0, "end each -rare-event point once its relative standard error drops below this (0 = fixed trial count)")
	fs.BoolVar(&csv, "csv", false, "stream CSV rows as cells finish instead of printing a table")
	fs.BoolVar(&jsonOut, "json", false, "stream one JSON object per cell as it finishes")
	fs.SetOutput(stderr)
	if err = fs.Parse(args); err != nil {
		return err
	}
	fail := func(err error) error { fmt.Fprintf(stderr, "%s: %v\n", c.Name, err); return err }
	if csv && jsonOut {
		return fail(fmt.Errorf("-csv and -json are mutually exclusive"))
	}
	if *key != "all" {
		all = []string{*key}
	}
	grids := make([][]sched.Job, len(all))
	for i, k := range all {
		*key = k
		r := req
		if sense && len(r.Values) == 0 {
			r.Values = montecarlo.Panel(k).DefaultValues(n)
		} else if !sense && len(r.Rates) == 0 {
			r.Rates = montecarlo.DefaultPhysRates(n)
		}
		if grids[i], err = serve.BuildCells(r); err != nil {
			return fail(err)
		}
	}
	if csv {
		fmt.Fprintln(stdout, c.csv+",logical_rate,stderr,trials")
	}
	scheduler := sched.New(montecarlo.NewEngine(), sched.Options{Jobs: req.Jobs, OnResult: func(r sched.CellResult) {
		if rec := serve.ToCellRecord(r); r.Err == nil && jsonOut { // a failed cell surfaces in Run's error
			json.NewEncoder(stdout).Encode(rec)
		} else if r.Err == nil && csv {
			fmt.Fprintf(stdout, c.row+",%[6]g,%[7]g,%[8]d\n", append(cell(rec), rec.LogicalRate, rec.StdErr, rec.Trials)...)
		}
	}})
	for i, cells := range grids {
		results, err := scheduler.Run(cells)
		if err != nil {
			return fail(fmt.Errorf("%s %s: %w", c.verb, all[i], err))
		} else if csv || jsonOut {
			continue // rows already streamed
		}
		cfg, rows := results[0].Job.Cfg, len(results)/len(req.Distances) // grids are distance-major
		fmt.Fprintf(stdout, "\n== "+c.title+" ==\n"+c.corner, all[i], cfg.Trials, cfg.Decoder)
		for j := 0; j < len(results); j += rows {
			fmt.Fprintf(stdout, "  d=%-9d", results[j].Job.Cfg.Distance)
		}
		for row := range rows {
			fmt.Fprintf(stdout, "\n"+c.label, cell(serve.ToCellRecord(results[row]))...)
			for j := row; j < len(results); j += rows {
				fmt.Fprintf(stdout, "  %-11.5f", results[j].Result.Rate())
			}
		}
		fmt.Fprintln(stdout)
		if sense {
			continue
		} else if th := montecarlo.EstimateThreshold(sched.ThresholdPoints(results)); th > 0 {
			fmt.Fprintf(stdout, "estimated threshold p_th ~= %.4f (paper: 0.008-0.009)\n", th)
		} else {
			fmt.Fprintln(stdout, "no threshold crossing bracketed by this grid")
		}
	}
	return nil
}

// listVar binds a comma-separated list flag to *p; -h shows *p as default.
func listVar[T any](fs *flag.FlagSet, p *[]T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) (err error) {
		fields := strings.Split(s, ",")
		*p = make([]T, len(fields))
		for i, f := range fields {
			if (*p)[i], err = parse(strings.TrimSpace(f)); err != nil {
				break
			}
		}
		return err
	})
	fs.Lookup(name).DefValue = strings.Join(words(*p), ",")
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// cell returns the coordinates the row and label formats index.
func cell(r serve.CellRecord) []any { return []any{r.Scheme, r.Panel, r.Distance, r.PhysRate, r.Value} }

// words returns a slice's elements as strings; none may print a space.
func words(v any) []string { return strings.Fields(strings.Trim(fmt.Sprint(v), "[]")) }
