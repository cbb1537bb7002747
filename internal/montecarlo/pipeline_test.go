package montecarlo

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
)

// The tentpole determinism contract at the engine level: pipeline on vs off
// produces bit-identical trial and failure counts for every decoder kind ×
// scheme × distance × noise scale.
func TestPipelineOnOffBitIdentical(t *testing.T) {
	en := NewEngine()
	var stOn, stOff WorkerState
	schemes := []extract.Scheme{extract.Baseline, extract.NaturalInterleaved, extract.CompactInterleaved}
	for _, dec := range []DecoderKind{UF, Blossom} {
		for _, scheme := range schemes {
			for _, d := range []int{3, 5, 7} {
				for _, phys := range []float64{2e-3, 8e-3} {
					cfg := ThresholdCellConfig(scheme, d, phys, hardware.Default(), 128, 23, dec, SweepOptions{})
					on, err := en.RunOn(cfg, &stOn)
					if err != nil {
						t.Fatalf("%s/%v d=%d p=%g on: %v", dec, scheme, d, phys, err)
					}
					cfg.DisablePipeline = true
					off, err := en.RunOn(cfg, &stOff)
					if err != nil {
						t.Fatalf("%s/%v d=%d p=%g off: %v", dec, scheme, d, phys, err)
					}
					if on.Trials != off.Trials || on.Failures != off.Failures {
						t.Errorf("%s/%v d=%d p=%g: pipeline on %d/%d failures/trials, off %d/%d",
							dec, scheme, d, phys, on.Failures, on.Trials, off.Failures, off.Trials)
					}
					if off.Skipped != 0 || off.DedupHits != 0 {
						t.Errorf("%s/%v d=%d p=%g: disabled pipeline reported counters %d/%d",
							dec, scheme, d, phys, off.Skipped, off.DedupHits)
					}
					if on.Skipped+on.DedupHits > on.Trials {
						t.Errorf("%s/%v d=%d p=%g: counters %d skipped + %d dedup exceed %d trials",
							dec, scheme, d, phys, on.Skipped, on.DedupHits, on.Trials)
					}
				}
			}
		}
	}
}

// Below threshold the fast paths must actually fire: most shots carry zero
// defects, and single-defect-pair syndromes repeat within batches.
func TestPipelineCountersBelowThreshold(t *testing.T) {
	cfg := ThresholdCellConfig(extract.CompactInterleaved, 5, 1e-3, hardware.Default(), 2048, 7, UF, SweepOptions{})
	res, err := NewEngine().RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Error("no zero-defect shots skipped at d=5 p=1e-3; the fast path is dead")
	}
	if res.DedupHits == 0 {
		t.Error("no syndrome dedup hits at d=5 p=1e-3; the dedup layer is dead")
	}
	// At this operating point (gates at 1e-3, coherence noise at its
	// Table I values) roughly 40% of d=5 shots carry zero defects.
	if got := float64(res.Skipped) / float64(res.Trials); got < 0.25 {
		t.Errorf("only %.0f%% of shots skipped at d=5 p=1e-3; the zero-defect rate collapsed", 100*got)
	}
}

// Pipeline-on determinism across shard plans of width {1, 2, 4, 8}: a
// repeat run of the plan, with a budget per shard, must merge to the
// index-order plan run (runPlan, which also holds its reversed and
// concurrent runs to the same bytes) in every field including the pipeline
// counters (the skip and dedup classification is a pure function of each
// shard stream). The one-shard plan is RunOn's.
func TestPipelineDeterministicAcrossWidthsAndShards(t *testing.T) {
	en := NewEngine()
	cfg := ThresholdCellConfig(extract.CompactInterleaved, 5, 3e-3, hardware.Default(), 4096, 99, Blossom, SweepOptions{})
	on, err := en.RunOn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4, 8} {
		plan := ShardPlan{Shards: width, Trials: cfg.Trials}
		first := runPlan(t, en, cfg, plan)
		if width == 1 && first != on {
			t.Fatalf("one-shard plan %+v vs RunOn %+v", first, on)
		}

		parts := make([]ShardResult, plan.Shards)
		var st WorkerState
		for s := 0; s < plan.Shards; s++ {
			sr, err := en.RunShardOn(cfg, plan, s, nil, &st)
			if err != nil {
				t.Fatalf("width %d shard %d: %v", width, s, err)
			}
			parts[s] = sr
		}
		merged, err := MergeShards(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		if merged != first {
			t.Fatalf("width %d: merged shards %+v vs runPlan %+v", width, merged, first)
		}
	}
}

// A merge where the lowest-indexed shard never ran (the fabric coordinator
// settles it as an empty ShardResult once siblings banked the target) must
// take the model dimensions from the lowest shard that did run.
func TestMergeShardsSkipsEmptyDims(t *testing.T) {
	cfg := Config{Trials: 100, Decoder: UF}
	parts := []ShardResult{
		{Shard: 0}, // skipped whole: no trials, no dims
		{Shard: 2, Counts: Counts{Trials: 10, Failures: 1, Skipped: 5, DedupHits: 2}, Mechanisms: 40, DetectorCount: 12},
		{Shard: 1, Counts: Counts{Trials: 20, Failures: 2, Skipped: 9, DedupHits: 3}, Mechanisms: 40, DetectorCount: 12},
	}
	res, err := MergeShards(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanisms != 40 || res.DetectorCount != 12 {
		t.Errorf("merged dims %d/%d; empty shard 0 blanked them", res.Mechanisms, res.DetectorCount)
	}
	if res.Trials != 30 || res.Failures != 3 || res.Skipped != 14 || res.DedupHits != 5 {
		t.Errorf("merged counts wrong: %+v", res)
	}
}
