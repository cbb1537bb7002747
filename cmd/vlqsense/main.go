// Command vlqsense reproduces the Fig. 12 sensitivity panels; -h lists its flags.
package main

import "repro/cmd/internal/sweepcli"

func main() { sweepcli.Sensitivity.Main() }
