package montecarlo

import (
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

// hitLeg is a cycle of one-batch cells that one warm WorkerState runs in
// turn: the structure-cache-hit path (noise vector, reweight, graph
// weights, sampler and decoder rebind) plus one 64-shot batch per call.
type hitLeg struct {
	name  string
	cells []Config
}

// hitLegs are the rare-event probe's alternating pair (Baseline d=9 and
// d=11 at p=1e-3, boost 1.5), whose consecutive cells always change the
// graph's shape, and a Fig. 11 row (Compact-Interleaved d=5..11 over
// DefaultPhysRates(6)), which walks every rate of one distance before
// growing to the next.
func hitLegs() []hitLeg {
	rare := func(d int) Config {
		return Config{
			Scheme: extract.Baseline, Distance: d, Basis: extract.BasisZ,
			Params: hardware.Default().ScaledGatesTo(1e-3), Trials: dem.BatchShots, Seed: 4242,
			RareEvent: true, Boost: 1.5,
		}
	}
	var row []Config
	for _, d := range []int{5, 7, 9, 11} {
		for _, p := range DefaultPhysRates(6) {
			row = append(row, ThresholdCellConfig(extract.CompactInterleaved, d, p, hardware.Default(), dem.BatchShots, 1, UF, SweepOptions{}))
		}
	}
	return []hitLeg{
		{"rare-alternating", []Config{rare(9), rare(11)}},
		{"fig11-row", row},
	}
}

// warmHit runs every cell of leg twice on st, so that the engine holds
// their structures and st's buffers have grown to the largest cell.
func warmHit(tb testing.TB, en *Engine, st *WorkerState, leg hitLeg) {
	tb.Helper()
	for range 2 {
		for _, cfg := range leg.cells {
			if _, err := en.RunOn(cfg, st); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkRunOnHit times one warm cell per op, cycling through a leg's
// cells, and reports allocs/op: the per-cell cost of a pool worker on a
// warm engine.
func BenchmarkRunOnHit(b *testing.B) {
	for _, leg := range hitLegs() {
		b.Run(leg.name, func(b *testing.B) {
			en := NewEngine()
			var st WorkerState
			warmHit(b, en, &st, leg)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := en.RunOn(leg.cells[i%len(leg.cells)], &st); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// A warm worker cycling through a leg's cells rebinds its model, graph,
// sampler and decoder in place: each call allocates at most a handful of
// times (rebuilding the union-find decoder on every change of shape and
// weighing into a fresh graph cost about 2,450 allocations per call on the
// alternating leg, and growing union-find's per-node candidate lists kept
// the Fig. 11 row at 5 to 7; both legs now make 3), and each result
// equals a RunOn's on a fresh state.
func TestRunOnHitPathAllocs(t *testing.T) {
	const maxAllocs = 4
	for _, leg := range hitLegs() {
		if testing.Short() && leg.name == "fig11-row" {
			continue // d=11 cells near threshold
		}
		en := NewEngine()
		var st WorkerState
		for _, cfg := range leg.cells {
			want, err := en.RunOn(cfg, &WorkerState{})
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				got, err := en.RunOn(cfg, &st)
				if err != nil {
					t.Fatal(err)
				}
				if got.Counts != want.Counts {
					t.Errorf("%s: d=%d p=%g on a warm worker: %+v, fresh state %+v", leg.name, cfg.Distance, cfg.Params.PGate2, got.Counts, want.Counts)
				}
			}
		}
		warmHit(t, en, &st, leg)
		allocs := testing.AllocsPerRun(10, func() {
			for _, cfg := range leg.cells {
				if _, err := en.RunOn(cfg, &st); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(leg.cells))
		t.Logf("%s: %.2f allocations per warm call", leg.name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s: a warm RunOn allocates %.1f times per call, want at most %d", leg.name, allocs, maxAllocs)
		}
	}
}
