package fabric

import (
	"encoding/json"
	"testing"

	"repro/internal/decoder"
	"repro/internal/montecarlo"
)

// The result submission is the one wire message carrying engine counters.
// montecarlo.Counts rides inside ShardResult as an untagged embedded
// struct, so its fields flatten into the "result" object under their Go
// names; this pins that key set and order for a fully populated shard, and
// the exact round trip the coordinator's merge depends on.
func TestResultRequestWireFormat(t *testing.T) {
	req := ResultRequest{
		Worker: "w1", Lease: "l7", Run: "r2", Cell: 4, Shard: 3,
		Result: montecarlo.ShardResult{
			Shard: 3,
			Counts: montecarlo.Counts{
				Trials: 1024, Failures: 7, Fallbacks: 1, Skipped: 900, DedupHits: 40,
				Stats: decoder.DecoderStats{
					UFGrowthRounds: 11, UFEdgeScans: 12, UFPeelNodes: 13,
					BlossomRounds: 14, BlossomLandmarkQs: 15, BlossomRematchedCmp: 16,
					WmatchTreeIters: 17, WmatchDualAdjusts: 18,
				},
				Weighted: montecarlo.WeightedResult{
					Shots: 1024, SumW: 1000.5, SumW2: 2000.25,
					SumWFail: 3.5, SumW2Fail: 4.25, MaxW: 9.5,
				},
			},
			Mechanisms: 1234, DetectorCount: 56,
		},
	}
	const want = `{"worker":"w1","lease":"l7","run":"r2","cell":4,"shard":3,` +
		`"result":{"Shard":3,"Trials":1024,"Failures":7,"Fallbacks":1,"Skipped":900,"DedupHits":40,` +
		`"Stats":{"uf_growth_rounds":11,"uf_edge_scans":12,"uf_peel_nodes":13,` +
		`"blossom_rounds":14,"blossom_landmark_queries":15,"blossom_rematched_components":16,` +
		`"wmatch_tree_iters":17,"wmatch_dual_adjusts":18},` +
		`"Weighted":{"Shots":1024,"SumW":1000.5,"SumW2":2000.25,"SumWFail":3.5,"SumW2Fail":4.25,"MaxW":9.5},` +
		`"Mechanisms":1234,"DetectorCount":56}}`
	got, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("ResultRequest wire form changed:\n got %s\nwant %s", got, want)
	}
	var back ResultRequest
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", back, req)
	}
}
