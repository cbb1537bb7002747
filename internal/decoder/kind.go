package decoder

import "fmt"

// Kind names a selectable decoding strategy — the single vocabulary shared
// by the Monte-Carlo engine, the sweep scheduler, the serving front end,
// and the sweep CLIs:
//
//   - KindUF: weighted-growth union-find — near-linear per shot, slightly
//     sub-optimal corrections. The conservative workhorse.
//   - KindBlossom: sparse-blossom exact matching — strictly minimum-weight
//     corrections, close to union-find's cost at p=1e-3 but several times
//     slower near threshold at large d (2.5-21x at d=11, p >= 0.005).
type Kind string

// The selectable decoder kinds.
const (
	KindUF      Kind = "uf"
	KindBlossom Kind = "blossom"
)

// Kinds lists every selectable kind.
var Kinds = []Kind{KindUF, KindBlossom}

// ParseKind validates a decoder name from a flag or request field.
func ParseKind(s string) (Kind, error) {
	k := Kind(s)
	for _, known := range Kinds {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("decoder: unknown kind %q (want one of %v)", s, Kinds)
}
