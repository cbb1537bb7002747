package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/hardware"
	"repro/internal/montecarlo"
	"repro/internal/sched"
)

// recordPins pins the canonical record bytes of a few golden_rates.json
// cells per CellKey version. A version's pins never change: when a change
// alters the bytes of a fixed config, it bumps the version in
// montecarlo.Config.CellKey and appends the new version's pins, keeping the
// old ones as the record of what each version meant.
var recordPins = []struct {
	version, cell, sha string
}{
	{"c1", "uf d=3 p=0.002", "d9ce9152c8c8e87e"},
	{"c1", "uf d=5 p=0.01262", "25a06de00629985a"},
	{"c1", "uf d=7 p=0.02", "4a60da8a1db5f57f"},
	{"c1", "blossom d=3 p=0.02", "1437be0fc5d3b42b"},
	{"c2", "uf d=3 p=0.002", "d9ce9152c8c8e87e"},
	{"c2", "uf d=5 p=0.01262", "ba69bb7eb05b78de"},
	{"c2", "uf d=7 p=0.02", "086c05189e980afb"},
	{"c2", "blossom d=3 p=0.02", "1437be0fc5d3b42b"},
}

// TestCellKeyPinsRecordBytes enforces the CellKey contract that a ledger
// and request coalescing rely on: equal keys address equal bytes. It
// recomputes a few cheap golden cells (Compact-Interleaved, 250 trials,
// seed 17, single-threaded RunOn), renders each as the record a ledger
// stores — decoder_stats included — and checks its hash against the pin
// for the current key version. Bytes that change under an unchanged
// version fail here, before a stale ledger could serve them.
func TestCellKeyPinsRecordBytes(t *testing.T) {
	rates := montecarlo.DefaultPhysRates(6)
	cells := []struct {
		d   int
		p   float64
		dec montecarlo.DecoderKind
	}{
		{3, rates[0], montecarlo.UF},
		{5, rates[4], montecarlo.UF},
		{7, rates[5], montecarlo.UF},
		{3, rates[5], montecarlo.Blossom},
	}
	en := montecarlo.NewEngine()
	var st montecarlo.WorkerState
	for _, c := range cells {
		job := sched.Job{
			Cfg: montecarlo.ThresholdCellConfig(extract.CompactInterleaved, c.d, c.p, hardware.Default(),
				250, 17, c.dec, montecarlo.SweepOptions{}),
			Tag: sched.ThresholdCell{Scheme: extract.CompactInterleaved, Distance: c.d, Phys: c.p},
		}
		res, err := en.RunOn(job.Cfg, &st)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(canonicalRecord(cellRecord(sched.CellResult{Job: job, Result: res})))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		sha := hex.EncodeToString(sum[:8])
		version, _, _ := strings.Cut(job.Cfg.CellKey(), "|")
		name := fmt.Sprintf("%s d=%d p=%.4g", c.dec, c.d, c.p)
		pinned := ""
		for _, pin := range recordPins {
			if pin.version == version && pin.cell == name {
				pinned = pin.sha
			}
		}
		switch {
		case pinned == "":
			t.Errorf("%s: no record pin for CellKey version %s; pin it: {%q, %q, %q}", name, version, version, name, sha)
		case pinned != sha:
			t.Errorf("%s: record bytes changed under unchanged CellKey version %s (pinned %s, now %s): bump the version in montecarlo.Config.CellKey and pin the new bytes\n%s",
				name, version, pinned, sha, buf)
		}
	}
}
