package montecarlo

import (
	"strconv"
	"strings"
)

// CellKey returns the canonical identity of a Monte-Carlo cell: a stable
// string covering every Config field that can change the cell's result
// bits — scheme, distance, rounds, basis, the full hardware model, trial
// budget, seed, decoder kind, charge-gap idling, early-stop targets, the
// rare-event parameters, and the decode-pipeline flag (the pipeline never
// changes predictions, but it does change the per-cell skip/dedup
// counters a result record carries). RunOn, the scheduler and a
// single-shard fabric lease all run the one stream layout of an unsharded
// cell and are bit-identical at any pool width, so one key addresses the
// same bytes no matter how they were computed. Only the fabric's
// multi-shard plans yield bytes that depend on a split; callers storing
// such results must key the split themselves, as internal/serve keys the
// shard count.
//
// Two configs with equal keys produce bit-identical Results; that
// equivalence is what makes the key usable as a content address for
// durable result stores and request coalescing (internal/serve's ledger).
// Zero-valued defaults are normalized before formatting (Rounds 0 means
// Distance, Boost 0 in rare-event mode means DefaultBoost), so a request
// that spells the default explicitly and one that omits it share a key.
// Floats are formatted as exact hexadecimal (%x) values: no two distinct
// float64 inputs collide, and no decimal rounding can merge or split
// identities.
//
// The key is versioned ("c2|..."): if a future change alters the result
// bytes for a fixed Config (a new noise term, say), the prefix must be
// bumped so stale ledger entries stop matching; internal/serve's
// TestCellKeyPinsRecordBytes fails when it is not. c2: union-find's
// status-aware cache invalidation rescans fewer candidate edges, so the
// uf_edge_scans counter every union-find record carries changed (failures,
// trials and every other counter are bit-identical to c1).
func (cfg Config) CellKey() string {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = cfg.Distance
	}
	boost := 0.0
	if cfg.RareEvent {
		boost = cfg.Boost
		if boost == 0 {
			boost = DefaultBoost
		}
	}
	var b strings.Builder
	b.Grow(256)
	b.WriteString("c2|")
	b.WriteString(cfg.Scheme.String())
	field(&b, "d", strconv.Itoa(cfg.Distance))
	field(&b, "r", strconv.Itoa(rounds))
	field(&b, "b", cfg.Basis.String())
	field(&b, "n", strconv.Itoa(cfg.Trials))
	field(&b, "s", strconv.FormatInt(cfg.Seed, 10))
	field(&b, "dec", string(cfg.Decoder))
	field(&b, "cgi", boolKey(cfg.ChargeGapIdle))
	field(&b, "tf", strconv.Itoa(cfg.TargetFailures))
	field(&b, "rare", boolKey(cfg.RareEvent))
	field(&b, "boost", hexFloat(boost))
	field(&b, "tre", hexFloat(cfg.TargetRelErr))
	field(&b, "nopipe", boolKey(cfg.DisablePipeline))
	// The full hardware model: every duration, probability, and the cavity
	// depth feed the noise annotation, so all of them are identity.
	p := cfg.Params
	b.WriteString("|hw=")
	for i, f := range []float64{
		p.T1Transmon, p.T1Cavity, p.Gate2Time, p.Gate1Time, p.GateTMTime,
		p.LoadStoreTime, p.MeasureTime, p.ResetTime,
		p.PGate2, p.PGate1, p.PGateTM, p.PLoadStore, p.PMeasure, p.PReset,
	} {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(hexFloat(f))
	}
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(p.CavityDepth))
	return b.String()
}

func field(b *strings.Builder, name, val string) {
	b.WriteByte('|')
	b.WriteString(name)
	b.WriteByte('=')
	b.WriteString(val)
}

func boolKey(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// hexFloat formats f exactly: distinct float64 bit patterns (other than
// +0/-0, which compare equal anyway) never share a representation.
func hexFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}
