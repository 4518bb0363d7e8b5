package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestREADMEQuickstart pins the exact API shown in README.md's
// programmatic example, so the docs cannot rot silently.
func TestREADMEQuickstart(t *testing.T) {
	c := core.MustNew(core.Enhanced(), core.DefaultTopology())
	alice, err := c.AddUser("alice", "password")
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Sched.Submit(alice.Cred, sched.JobSpec{
		Name: "train", Command: "python train.py", Cores: 16,
		MemB: 1 << 30, GPUs: 2, Duration: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll(1000)
	got, err := c.Sched.Job(job)
	if err != nil || got.State != sched.Completed {
		t.Fatalf("quickstart job: %v %v", got, err)
	}
}

// TestScaleSoak drives a larger cluster through a heavy mixed
// campaign and re-checks every separation invariant at scale. Skipped
// under -short.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	topo := core.Topology{
		ComputeNodes: 32, LoginNodes: 2,
		CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2,
	}
	c := core.MustNew(core.Enhanced(), topo)
	const nUsers = 10
	users := make([]*core.User, nUsers)
	creds := make([]ids.Credential, nUsers)
	for i := range users {
		u, err := c.AddUser(fmt.Sprintf("user%02d", i), "pw")
		if err != nil {
			t.Fatal(err)
		}
		users[i], creds[i] = u, u.Cred
	}
	mix, err := workload.MixSpec{
		Users: nUsers, JobsPerUser: 100, Kind: "montecarlo",
		MinCores: 1, MaxCores: 16,
		MinDur: 1, MaxDur: 6, MemB: 1 << 24,
		OOMEvery: 97, OOMMemB: 2 << 30,
	}.Build(metrics.NewRNG(99), creds)
	if err != nil {
		t.Fatal(err)
	}
	jids, err := workload.SubmitAll(c.Sched, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(jids) != nUsers*100 {
		t.Fatalf("submitted %d", len(jids))
	}
	c.RunAll(50000)
	if n := c.Sched.Unfinished(); n != 0 {
		t.Fatalf("campaign did not drain: %d jobs left", n)
	}
	if n := c.Sched.PeakUsersPerNode(); n != 1 {
		t.Fatalf("peak users per node = %d at scale, want 1", n)
	}
	// Blast radius stayed per-user despite injected OOMs.
	crashes, cofail := c.Sched.Crashes()
	if crashes == 0 {
		t.Error("OOM injection produced no crashes — soak lost its teeth")
	}
	if cofail != 0 {
		t.Errorf("cross-user cofailures = %d at scale", cofail)
	}
	// Scheduler privacy holds for every user at scale.
	for _, u := range users {
		for _, r := range c.Sched.Sacct(u.Cred) {
			if r.User != u.UID {
				t.Fatalf("sacct leaked a row of uid %d to uid %d", r.User, u.UID)
			}
		}
	}
	// Utilization should be healthy for a packed short-job campaign.
	if util := c.Sched.Utilization(); util < 0.5 {
		t.Errorf("utilization = %.3f, suspiciously low", util)
	}
}
