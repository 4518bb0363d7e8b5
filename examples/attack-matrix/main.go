// Attack matrix: the paper's Results section (§V) as a live red-team
// demo. Instead of the single-probe sweep (cmd/leakscan keeps that
// angle), every composed attacker model from internal/attack runs as
// a full campaign against a baseline cluster and an enhanced cluster.
// The kill-chain campaign's tick-stamped event timeline is printed
// for both profiles, then the whole model × profile outcome matrix.
//
// Expected output shape: on baseline every model breaks through at
// its first step and no attempt is ever denied; on enhanced no model
// scores a non-residual leak — only file names in world-writable
// directories, abstract-namespace unix sockets, and native-CM RDMA
// (the paper's three conceded residuals) leak — and every campaign
// is detected (a denied step) within a few ticks.
//
//	go run ./examples/attack-matrix
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
)

const campaignSeed = 7

// runCampaign builds a fresh cluster for the profile (campaigns
// provision their own victim, so clusters are single-use here) and
// executes the compiled model against it.
func runCampaign(p core.Profile, cs *attack.Compiled) (*attack.Outcome, error) {
	c, err := core.NewWithProfile(p)
	if err != nil {
		return nil, err
	}
	rng := metrics.NewRNG(metrics.StreamSeed(campaignSeed, attack.StreamIndex))
	out, _, err := cs.Execute(c, rng, 100000)
	return out, err
}

func main() {
	// Part 1: the kill-chain timeline, blow by blow, on both profiles.
	chainSpec, err := attack.ModelByName("kill-chain")
	if err != nil {
		log.Fatal(err)
	}
	chain, err := chainSpec.Compile()
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range core.Profiles() {
		out, err := runCampaign(p, chain)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(audit.EventTable(out.Model+" vs "+p.Name, out.Events).Render())
	}

	// Part 2: the full model × profile outcome matrix.
	t := metrics.NewTable("campaign outcomes — attacker model × profile",
		"model", "profile", "broke through", "first-leak step", "leaks (residual)", "detected at tick")
	for _, spec := range attack.Models() {
		cs, err := spec.Compile()
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range core.Profiles() {
			out, err := runCampaign(p, cs)
			if err != nil {
				log.Fatal(err)
			}
			broke, firstLeak, detected := "no", "—", "—"
			if out.Success {
				broke, firstLeak = "YES", fmt.Sprintf("%d/%d", out.StepsToFirstLeak, out.Steps)
			}
			if out.Detected {
				detected = fmt.Sprintf("%d", out.DetectionTick)
			}
			t.AddRow(out.Model, p.Name, broke, firstLeak,
				fmt.Sprintf("%d (%d)", out.Leaks, out.ResidualLeaks), detected)
		}
	}
	t.AddNote("broke through = ≥1 non-residual leak; enhanced concedes only the three residual channels")
	fmt.Println(t.Render())
}
