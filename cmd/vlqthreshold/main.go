// Command vlqthreshold reproduces the Fig. 11 threshold sweeps; -h lists its flags.
package main

import "repro/cmd/internal/sweepcli"

func main() { sweepcli.Threshold.Main() }
