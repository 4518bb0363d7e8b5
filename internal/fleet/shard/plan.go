// Package shard is the supervision layer that turns the fleet
// executor into a service: it plans a campaign into per-scenario
// replication-range shards, runs each shard as a supervised worker
// (in-process, or a re-exec'd fleetrun — same interface) with
// liveness checks, deadlines and bounded retry-with-exponential-
// backoff, and merges the shards' checkpoint journals back into a
// campaign result whose JSON is byte-identical to a 1-process
// fleet.Run. A shard's liveness is its journal growing.
//
// The byte-identity argument is inherited, not re-proven: a shard's
// artifact is its checkpoint — per-trial aggregates at global
// replication indices — so the merge re-enters the identical
// trial-index-order reduction Run uses, trial RNG streams are keyed
// by (scenario, replication) and never by shard, and float64 values
// survive the journal's JSON round-trip exactly. A dead or wedged
// shard resumes from its own journal instead of recomputing; a shard
// that exhausts its retry budget degrades to counted per-scenario
// failures rather than failing the campaign.
package shard

import (
	"fmt"

	"repro/internal/fleet"
)

// Assignment is one shard's slice of a campaign: per scenario, a
// contiguous half-open replication range. Ranges may be empty — a
// scenario with fewer replications than shards simply skips some
// shards.
type Assignment struct {
	Shard  int              `json:"shard"`
	Ranges []fleet.RepRange `json:"ranges"`
}

// Trials returns the assignment's trial count.
func (a Assignment) Trials() int {
	n := 0
	for _, r := range a.Ranges {
		n += r.Len()
	}
	return n
}

// Plan splits every scenario's replication range [0, Replications)
// into `shards` contiguous sub-ranges, shard i taking
// [reps*i/shards, reps*(i+1)/shards). The split is balanced (range
// sizes differ by at most one), deterministic, and a partition by
// construction: the union over shards covers every (scenario,
// replication) exactly once — gated by TestPlanCoversExactlyOnce.
// Both sides of a re-exec compute the same plan from (campaign,
// shards) alone, so a worker needs only its index, not a range list.
func Plan(c fleet.Campaign, shards int) ([]Assignment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1 (got %d)", shards)
	}
	plan := make([]Assignment, shards)
	for i := range plan {
		plan[i] = Assignment{Shard: i, Ranges: make([]fleet.RepRange, len(c.Scenarios))}
	}
	for si, s := range c.Scenarios {
		for i := 0; i < shards; i++ {
			plan[i].Ranges[si] = fleet.RepRange{
				Lo: s.Replications * i / shards,
				Hi: s.Replications * (i + 1) / shards,
			}
		}
	}
	return plan, nil
}
