// Command leakscan runs the full cross-user attack-surface sweep
// (paper §V) against freshly built clusters and prints the reports.
// By default it scans both named profiles (baseline and enhanced)
// side by side; -profile narrows to one, and -ablate drops measures
// from it first, so a site can ask "what leaks if we skip the UBF?"
// directly:
//
//	go run ./cmd/leakscan
//	go run ./cmd/leakscan -profile enhanced -ablate ubf
//
// With -attack <model>, a composed adversary campaign
// (internal/attack) also runs against each scanned cluster and its
// per-step outcome is printed alongside the probe sweep:
//
//	go run ./cmd/leakscan -attack kill-chain
//
// Exit status: 0 if the full (un-ablated) enhanced configuration
// shows no unexpected leaks (only the paper's three residual
// channels) and — when -attack is given — its campaign scores no
// non-residual leak, 1 otherwise. Ablated runs never gate on leaks,
// since reopening channels is their point; an inconclusive verdict
// (an attempt that neither leaked nor met an observed refusal) exits
// 1 on any run, since its row proves nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	computeNodes := flag.Int("nodes", 8, "compute nodes in the simulated cluster")
	cores := flag.Int("cores", 16, "cores per node")
	profileName := flag.String("profile", "", "scan a single profile (baseline or enhanced; default: both)")
	ablate := flag.String("ablate", "", "comma-separated measures to drop from the profile before scanning")
	attackModel := flag.String("attack", "", "also run an adversary campaign (attacker model name from internal/attack) against each scanned cluster")
	seed := flag.Uint64("seed", 1, "campaign RNG seed (only with -attack)")
	flag.Parse()

	var campaign *attack.Compiled
	if *attackModel != "" {
		spec, err := attack.ModelByName(*attackModel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakscan: %v\n", err)
			os.Exit(2)
		}
		cs, err := spec.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakscan: %v\n", err)
			os.Exit(2)
		}
		campaign = cs
	}

	topo := core.DefaultTopology()
	topo.ComputeNodes = *computeNodes
	topo.CoresPerNode = *cores

	var opts []core.Option
	for _, m := range strings.Split(*ablate, ",") {
		if m = strings.TrimSpace(m); m != "" {
			opts = append(opts, core.Without(m))
		}
	}

	profiles := core.Profiles()
	if *profileName != "" {
		p, err := core.ProfileByName(*profileName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakscan: %v\n", err)
			os.Exit(2)
		}
		profiles = []core.Profile{p}
	} else if len(opts) > 0 {
		// Ablation without an explicit profile means "enhanced minus
		// the named measures" — ablating baseline is an error anyway.
		profiles = []core.Profile{core.EnhancedProfile()}
	}

	failed := false
	for _, p := range profiles {
		c, err := core.NewWithProfile(p, append([]core.Option{core.WithTopology(topo)}, opts...)...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakscan: build %s cluster: %v\n", p.Name, err)
			os.Exit(2)
		}
		if diff := p.MustConfig().Diff(c.Cfg); len(diff) > 0 {
			fmt.Printf("ablated vs %s:\n  %s\n\n", p.Name, strings.Join(diff, "\n  "))
		}
		rep, err := attack.LeakScan(c)
		if rep == nil {
			fmt.Fprintf(os.Stderr, "leakscan: scan %s: %v\n", c.Cfg.Name, err)
			os.Exit(2)
		}
		fmt.Println(rep.Table().Render())
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakscan: scan %s: %v\n", c.Cfg.Name, err)
			failed = true
		}
		if unexpected, _ := rep.Leaks(); c.Cfg.Name == "enhanced" && unexpected > 0 {
			failed = true
		}
		if campaign != nil {
			// A fresh cluster per campaign: the probe sweep above already
			// provisioned its own victim and left artifacts behind.
			ac, err := core.NewWithProfile(p, append([]core.Option{core.WithTopology(topo)}, opts...)...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "leakscan: attack %s: %v\n", c.Cfg.Name, err)
				os.Exit(2)
			}
			arng := metrics.NewRNG(metrics.StreamSeed(*seed, attack.StreamIndex))
			out, _, err := campaign.Execute(ac, arng, 100000)
			if err != nil {
				fmt.Fprintf(os.Stderr, "leakscan: attack %s: %v\n", c.Cfg.Name, err)
				os.Exit(2)
			}
			fmt.Println(audit.EventTable(out.Model+" vs "+c.Cfg.Name, out.Events).Render())
			if len(opts) == 0 && c.Cfg.Name == "enhanced" && out.Success {
				fmt.Fprintf(os.Stderr, "leakscan: %s campaign broke through enhanced at step %d\n", out.Model, out.StepsToFirstLeak)
				failed = true
			}
			if out.Inconclusive > 0 {
				fmt.Fprintf(os.Stderr, "leakscan: %s campaign on %s: %d inconclusive steps\n", out.Model, c.Cfg.Name, out.Inconclusive)
				failed = true
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "leakscan: enhanced configuration leaked unexpectedly, or a verdict was inconclusive")
		os.Exit(1)
	}
	if len(opts) == 0 && *profileName == "" {
		fmt.Println("leakscan: enhanced configuration closes every channel except the three residuals the paper lists")
	}
}
