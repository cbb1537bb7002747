package decoder

import "fmt"

// Kind names a selectable decoding strategy — the single vocabulary shared
// by the Monte-Carlo engine, the sweep scheduler, the serving front end,
// and the sweep CLIs:
//
//   - KindUF: weighted-growth union-find — near-linear per shot, slightly
//     sub-optimal corrections. The conservative workhorse.
//   - KindBlossom: sparse-blossom exact matching — strictly minimum-weight
//     corrections at union-find-like cost (faster on warm engines at
//     d >= 7). The production matcher.
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
