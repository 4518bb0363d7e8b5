package fleet_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleet/shard"
)

func resultJSON(t *testing.T, res *fleet.CampaignResult, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shardCheckpoints runs every shard of the plan and returns their
// final checkpoints, in shard order.
func shardCheckpoints(t *testing.T, c fleet.Campaign, plan []shard.Assignment) []*fleet.Checkpoint {
	t.Helper()
	dir := t.TempDir()
	cks := make([]*fleet.Checkpoint, len(plan))
	for i, a := range plan {
		ck, _, err := fleet.RunShard(c, fleet.Options{
			Seed:           7,
			CheckpointPath: filepath.Join(dir, fmt.Sprintf("shard-%d.ck.json", i)),
		}, fleet.ShardRun{Index: i, Count: len(plan), Ranges: a.Ranges})
		if err != nil {
			t.Fatal(err)
		}
		cks[i] = ck
	}
	return cks
}

// MergeCheckpoints unit contract: the checkpoints of 1, 2 and 3 shards
// merge to Run's bytes, for a plain and an attacked campaign, and
// merging the same checkpoints again gives the same bytes — the fold
// clones the histogram buckets and attack-aggregate maps it merges
// into, never its inputs. A duplicated replication (mixed plans) and a
// missing one (without degrade) are loud errors.
func TestMergeCheckpoints(t *testing.T) {
	redteam := fleet.MustPreset(fleet.PresetE17RedTeam)
	for i := range redteam.Scenarios {
		redteam.Scenarios[i].Replications = 2
	}
	for _, camp := range []fleet.Campaign{fleet.MustPreset(fleet.PresetSmoke), redteam} {
		res, err := fleet.Run(camp, fleet.Options{Workers: 2, Seed: 7})
		clean := resultJSON(t, res, err)
		for shards := 1; shards <= 3; shards++ {
			t.Run(fmt.Sprintf("%s/%d", camp.Name, shards), func(t *testing.T) {
				plan, err := shard.Plan(camp, shards)
				if err != nil {
					t.Fatal(err)
				}
				cks := shardCheckpoints(t, camp, plan)
				for pass := 1; pass <= 2; pass++ {
					res, err := fleet.MergeCheckpoints(camp, 7, cks, false)
					if got := resultJSON(t, res, err); !bytes.Equal(got, clean) {
						t.Fatalf("merge pass %d differs from Run (pass 2 failing alone means the merge mutated its inputs):\n%s\nvs\n%s", pass, got, clean)
					}
				}
			})
		}
	}

	camp := fleet.MustPreset(fleet.PresetSmoke)
	plan, err := shard.Plan(camp, 2)
	if err != nil {
		t.Fatal(err)
	}
	cks := shardCheckpoints(t, camp, plan)
	if _, err := fleet.MergeCheckpoints(camp, 7, []*fleet.Checkpoint{cks[0], cks[0]}, false); err == nil {
		t.Error("duplicated replication across checkpoints accepted")
	}
	if _, err := fleet.MergeCheckpoints(camp, 7, cks[:1], false); err == nil {
		t.Error("missing replications accepted without degrade")
	}
	degraded, err := fleet.MergeCheckpoints(camp, 7, cks[:1], true)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range degraded.Scenarios {
		missing := camp.Scenarios[i].Replications - plan[0].Ranges[i].Len()
		if s.Failures != missing {
			t.Errorf("scenario %d: %d failures, want %d (the absent shard's trials)", i, s.Failures, missing)
		}
	}
	// Seed mismatch is rejected up front, like resume.
	if _, err := fleet.MergeCheckpoints(camp, 8, cks, false); err == nil {
		t.Error("checkpoints from another seed accepted")
	}
}
