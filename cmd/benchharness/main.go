// Command benchharness regenerates every table of the paper's
// evaluation (experiments E1..E15 in DESIGN.md, the E16
// measure-ablation matrix, and the E17 red-team campaign matrix):
//
//	go run ./cmd/benchharness
//	go run ./cmd/benchharness -only E16
//	go run ./cmd/benchharness -only E17       # attacker-model × config campaigns
//	go run ./cmd/benchharness -only E4FLEET   # replicated fleet campaigns
//
// The tables are deterministic: two runs print the same bytes. The
// cost of each experiment's hot path is measured by the Go
// benchmarks in bench_test.go, whose allocation counts are pinned
// exactly by TestAllocPins.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	only := flag.String("only", "", "run a single experiment table, e.g. E4")
	flag.Parse()

	all := map[string]func() *metrics.Table{
		"E1":  experiments.E1ProcessVisibility,
		"E2":  experiments.E2CVEMitigation,
		"E3":  experiments.E3SchedulerPrivacy,
		"E4":  experiments.E4SchedulingPolicies,
		"E5":  experiments.E5SSHGate,
		"E6":  experiments.E6FilesystemMatrix,
		"E7":  experiments.E7UBFMatrix,
		"E8":  experiments.E8UBFOverhead,
		"E9":  experiments.E9GPUResidue,
		"E10": experiments.E10ResidualChannels,
		"E11": experiments.E11Portal,
		"E12": experiments.E12Container,
		"E13": experiments.E13PPSComparison,
		"E14": experiments.E14CryptoMPIComparison,
		"E15": experiments.E15MitigationTax,
		"E16": experiments.E16AblationMatrix,
		"E17": experiments.E17RedTeamMatrix,
		// Fleet campaign re-expressions (replicated distributions).
		"E4FLEET":  experiments.E4FleetReplicated,
		"E16FLEET": experiments.E16FleetDrainReplicated,
	}
	if *only != "" {
		f, ok := all[strings.ToUpper(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q (E1..E17, E4FLEET, E16FLEET)\n", *only)
			os.Exit(2)
		}
		fmt.Println(f().Render())
		return
	}
	for _, t := range experiments.All() {
		fmt.Println(t.Render())
	}
}
