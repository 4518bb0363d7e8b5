package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// trialScript drives a cluster through every subsystem a campaign
// trial can touch — identity provisioning, filesystem writes, job
// submission with an OOM crash, GPU assignment, UBF-checked network
// traffic, portal sessions and forwards, containers, support-staff
// escalation — and returns a digest of everything observable. Two
// clusters are behaviourally equal iff their digests match.
func trialScript(t *testing.T, c *Cluster) map[string]interface{} {
	t.Helper()
	out := map[string]interface{}{}

	alice, err := c.AddUser("alice", "pw-a")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.AddUser("bob", "pw-b")
	if err != nil {
		t.Fatal(err)
	}
	out["uids"] = []ids.UID{alice.UID, bob.UID}
	out["egids"] = []ids.GID{alice.Cred.EGID, bob.Cred.EGID}

	// Filesystem: homes and a shared scratch file.
	actx := vfs.Ctx(alice.Cred)
	if err := c.SharedFS.WriteFile(actx, "/scratch/shared/data", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := c.SharedFS.Stat(actx, "/scratch/shared/data")
	if err != nil {
		t.Fatal(err)
	}
	out["file"] = fmt.Sprintf("%o %d %d", fi.Mode, fi.Owner, fi.Size)

	// Scheduler: a mixed workload with one OOM job, drained fully.
	for i := 0; i < 4; i++ {
		u := alice
		if i%2 == 1 {
			u = bob
		}
		spec := sched.JobSpec{Name: fmt.Sprintf("j%d", i), Command: "x", Cores: 2, MemB: 1 << 20, Duration: int64(1 + i)}
		if i == 2 {
			spec.ActualMemB = 4 << 30 // beyond node memory: crash
		}
		if i == 3 {
			spec.GPUs = 1
		}
		if _, err := c.Sched.Submit(u.Cred, spec); err != nil {
			t.Fatal(err)
		}
	}
	out["ticks"] = c.RunAll(500)
	crashes, cofail := c.Sched.Crashes()
	out["crashes"] = fmt.Sprintf("%d/%d", crashes, cofail)
	out["util"] = c.Sched.Utilization()
	out["sacct"] = c.Sched.Sacct(ids.RootCred())

	// Network + UBF: same-user accept, cross-user verdict.
	h0, err := c.Host(c.Compute[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.Host(c.Compute[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h0.Listen(alice.Cred, netsim.TCP, 9100); err != nil {
		t.Fatal(err)
	}
	_, sameErr := h1.Dial(alice.Cred, netsim.TCP, c.Compute[0].Name, 9100)
	_, crossErr := h1.Dial(bob.Cred, netsim.TCP, c.Compute[0].Name, 9100)
	out["dial"] = fmt.Sprintf("same=%v cross=%v", sameErr == nil, crossErr == nil)
	out["ubf"] = fmt.Sprintf("%d/%d", c.UBF.Allowed.Load(), c.UBF.Denied.Load())

	// Portal: login token text is part of the digest — the token
	// counter must rewind with everything else.
	tok, err := c.Portal.Login(alice.Cred, "pw-a")
	if err != nil {
		t.Fatal(err)
	}
	out["token"] = tok

	// Proc views: what bob's ps shows on the first login node.
	var procs []string
	for _, p := range c.Proc[c.Logins[0].Name].List(bob.Cred) {
		procs = append(procs, fmt.Sprintf("%d:%s", p.PID, p.Comm))
	}
	out["ps"] = procs

	// Escalation: support staff joins the whitelists.
	carol, err := c.AddSupportStaff("carol", "pw-c")
	if err != nil {
		t.Fatal(err)
	}
	_, seepidErr := c.Seepid.Elevate(carol.Cred)
	out["seepid"] = seepidErr == nil

	// Containers.
	c.Containers.ImportImage("img", map[string]string{"/bin/tool": "v1"})
	if _, err := c.Containers.Image("img"); err != nil {
		t.Fatal(err)
	}
	return out
}

// The whole-cluster Reset contract: after an aggressively dirtying
// trial, Reset returns the cluster to a state observationally
// equivalent to a freshly constructed one — the same script replays
// to the same digest, token strings, PIDs, UIDs and accounting
// included. This is the property the fleet pool stands on.
func TestClusterResetObservationalEquivalence(t *testing.T) {
	for _, prof := range Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			pooled := MustNewWithProfile(prof)
			_ = trialScript(t, pooled) // trial 1: dirty everything
			if err := pooled.Reset(); err != nil {
				t.Fatal(err)
			}
			got := trialScript(t, pooled) // trial 2 on the reset cluster

			want := trialScript(t, MustNewWithProfile(prof)) // fresh cluster
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset cluster diverged from fresh:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// Reset must be repeatable across many rounds without drift — the
// campaign case (one cluster, many replications).
func TestClusterResetManyRounds(t *testing.T) {
	c := MustNewWithProfile(EnhancedProfile())
	var want map[string]interface{}
	for round := 0; round < 4; round++ {
		got := trialScript(t, c)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d diverged:\n got: %v\nwant: %v", round, got, want)
		}
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// A reset cluster's GPU devices must be invisible (enhanced) again
// even after a trial assigned them, and cleared of residue.
func TestClusterResetGPUState(t *testing.T) {
	c := MustNewWithProfile(EnhancedProfile())
	alice, err := c.AddUser("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	jj, err := c.Sched.Job(j)
	if err != nil {
		t.Fatal(err)
	}
	if jj.State != sched.Running {
		t.Fatalf("gpu job did not start: %v", jj.State)
	}
	node := jj.Nodes[0]
	dev := c.GPUs.Devices(node)[0]
	if err := dev.Write(alice.Cred, 0, []byte("SECRET")); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Assigned(); got != ids.NoUID {
		t.Errorf("device still assigned to %d after Reset", got)
	}
	n, err := c.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	if devs := n.VisibleDevs(alice.Cred); len(devs) != 0 {
		t.Errorf("devices %v still visible after Reset", devs)
	}
	// Root can read the memory: it must be zeroed.
	data, err := dev.Read(ids.RootCred(), 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "\x00\x00\x00\x00\x00\x00" {
		t.Errorf("device residue %q survived Reset", data)
	}
}
