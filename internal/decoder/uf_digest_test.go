package decoder

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"repro/internal/dem"
	"repro/internal/extract"
	"repro/internal/hardware"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/uf_digest.json from the current union-find decoder")

const ufDigestPath = "testdata/uf_digest.json"

// ufDigestShots is the number of sampled shots pinned per config.
const ufDigestShots = 256

// ufDigestCell pins one config's union-find behaviour shot by shot: Digest
// is an FNV-64a over every shot's prediction, growth-round delta, peel-node
// delta and grown support (the saturated edge ids), Failures the number of
// shots whose prediction missed the sampled observable flip.
type ufDigestCell struct {
	Scheme   string  `json:"scheme"`
	Distance int     `json:"distance"`
	PhysRate float64 `json:"phys_rate"`
	Shots    int     `json:"shots"`
	Failures int     `json:"failures"`
	Digest   string  `json:"digest"`
}

// ufDigestRows recomputes the digest grid: Baseline and
// Compact-Interleaved, d in {3,5,7,9,11}, five gate-noise scales from well
// below to well above threshold. One UnionFind decodes all 50 cells,
// rebound from each to the next across scales, distances and schemes, so
// the pin also covers state carried over a Rebind that shrinks or grows
// the decoder.
func ufDigestRows(t *testing.T) []ufDigestCell {
	t.Helper()
	rates := []float64{1e-3, 2e-3, 8e-3, 2e-2, 3e-2}
	var out []ufDigestCell
	uf := &UnionFind{}
	for _, scheme := range []extract.Scheme{extract.Baseline, extract.CompactInterleaved} {
		for _, d := range []int{3, 5, 7, 9, 11} {
			e, err := extract.Build(extract.Config{
				Scheme: scheme, Distance: d, Basis: extract.BasisZ,
				Params: hardware.Default().ScaledGatesTo(rates[0]),
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := dem.BuildStructure(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rates {
				probs, err := e.NoiseProbs(hardware.Default().ScaledGatesTo(p), nil)
				if err != nil {
					t.Fatal(err)
				}
				m, err := st.Reweight(probs)
				if err != nil {
					t.Fatal(err)
				}
				g, err := m.DecodingGraph()
				if err != nil {
					t.Fatal(err)
				}
				uf.Rebind(g)
				out = append(out, ufDigestCell{
					Scheme: scheme.String(), Distance: d, PhysRate: p, Shots: ufDigestShots,
				})
				digestShots(t, uf, m, uint64(d)*1000+uint64(p*1e6), &out[len(out)-1])
			}
		}
	}
	return out
}

// digestShots samples c.Shots shots of m from a fixed seed, decodes each on
// uf and folds the per-shot record into c.
func digestShots(t *testing.T, uf *UnionFind, m *dem.Model, seed uint64, c *ufDigestCell) {
	t.Helper()
	bs := m.NewBatchSampler()
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	rng := rand.New(rand.NewChaCha8(key))
	h := fnv.New64a()
	var rec [17]byte
	var support []int32
	for shot := 0; shot < c.Shots; shot++ {
		if shot%dem.BatchShots == 0 {
			bs.Sample(rng)
		}
		ev, flip := bs.Shot(shot % dem.BatchShots)
		before := uf.DecoderStats()
		pred, err := uf.Decode(ev)
		if err != nil {
			t.Fatalf("%s d=%d p=%g shot %d: %v", c.Scheme, c.Distance, c.PhysRate, shot, err)
		}
		delta := uf.DecoderStats().Sub(before)
		rec[0] = 0
		if pred {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint64(rec[1:], uint64(delta.UFGrowthRounds))
		binary.LittleEndian.PutUint64(rec[9:], uint64(delta.UFPeelNodes))
		h.Write(rec[:])
		// The grown support: every edge saturated by this decode, in id
		// order. It moves with the union order long before a prediction
		// does.
		support = grownSupport(uf, support[:0])
		for _, ei := range support {
			binary.LittleEndian.PutUint32(rec[:4], uint32(ei))
			h.Write(rec[:4])
		}
		if pred != flip {
			c.Failures++
		}
	}
	c.Digest = fmt.Sprintf("%016x", h.Sum64())
}

// grownSupport appends the edges the last decode saturated to buf, in id
// order. It reads them node by node through satEdges, as peel does.
func grownSupport(uf *UnionFind, buf []int32) []int32 {
	for v := range int32(uf.n) {
		buf = uf.satEdges(v, buf)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// TestUnionFindMatchesDigest pins union-find's per-shot behaviour —
// predictions, growth rounds, peel visits and the grown support — across schemes, distances
// and noise scales from below to above threshold. Growth-loop optimizations
// must reproduce the eager schedule exactly; this catches a change that
// does not, long before it would move a golden logical rate. Candidate-edge
// scans are deliberately not pinned: they measure the optimizations.
// Regenerate with go test ./internal/decoder -run TestUnionFindMatchesDigest
// -update only after an intentional change in decoding behaviour.
func TestUnionFindMatchesDigest(t *testing.T) {
	got := ufDigestRows(t)
	if *updateDigest {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ufDigestPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digest cells to %s", len(got), ufDigestPath)
		return
	}
	buf, err := os.ReadFile(ufDigestPath)
	if err != nil {
		t.Fatalf("missing digest fixture (regenerate with -update): %v", err)
	}
	var want []ufDigestCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt digest fixture: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("digest fixture has %d cells, recomputation produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("cell %d drifted:\n fixture    %+v\n recomputed %+v", i, want[i], got[i])
		}
	}
}
