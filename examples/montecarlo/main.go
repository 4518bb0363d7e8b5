// Monte Carlo campaign: the workload class that motivated the
// paper's user-based whole-node scheduling policy (§IV-B) — large
// volumes of short, bulk-synchronous jobs from several users, with
// the occasional job that blows past its memory request.
//
// The example runs the identical campaign under all three
// node-sharing policies and prints the trade-off table: shared packs
// best but lets one user's OOM kill another user's jobs; exclusive is
// safe but wastes cores; user-wholenode is safe AND packs well.
//
//	go run ./examples/montecarlo
//	go run ./examples/montecarlo -seed 7   # a different campaign draw
//
// The seed in use is always printed, so any run can be reproduced
// from its output.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 2024, "campaign RNG seed (printed with the results)")
	flag.Parse()

	table := metrics.NewTable("Monte Carlo campaign: 480 jobs, 6 users, 8×16-core nodes",
		"policy", "utilization", "makespan", "crashes", "cross-user cofailures", "max users/node")

	for _, pol := range []sched.SharingPolicy{
		sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode,
	} {
		// A one-off measure overrides the enhanced profile's policy
		// while keeping every other separation measure deployed — the
		// composable way to run a policy sweep.
		pol := pol
		c, err := core.NewWithProfile(core.EnhancedProfile(),
			core.WithMeasures(core.Measure{
				Name:    "policy-" + pol.String(),
				Summary: "pin the node-sharing policy for this sweep point",
				Apply:   func(cfg *core.Config) { cfg.Policy = pol },
			}))
		if err != nil {
			log.Fatal(err)
		}
		creds := make([]ids.Credential, 6)
		for u := range creds {
			user, err := c.AddUser(fmt.Sprintf("user%d", u), "pw")
			if err != nil {
				log.Fatal(err)
			}
			creds[u] = user.Cred
		}
		// 80 jobs per user; every 75th job exceeds its memory request.
		mix, err := workload.MixSpec{
			Users: 6, JobsPerUser: 80, Kind: "montecarlo",
			MinCores: 1, MaxCores: 8,
			MinDur: 1, MaxDur: 4,
			MemB:     1 << 20,
			OOMEvery: 75, OOMMemB: 2 * core.DefaultTopology().MemPerNode,
		}.Build(metrics.NewRNG(*seed), creds)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := workload.SubmitAll(c.Sched, mix); err != nil {
			log.Fatal(err)
		}
		ticks := c.RunAll(20000)
		crashes, cofail := c.Sched.Crashes()
		table.AddRow(pol.String(), c.Sched.Utilization(), ticks, crashes, cofail, c.Sched.PeakUsersPerNode())
	}
	table.AddNote("seed %d — rerun with -seed %d to reproduce this exact campaign", *seed, *seed)
	table.AddNote("the paper's policy (user-wholenode) eliminates cross-user blast radius without exclusive's waste")
	fmt.Println(table.Render())
}
