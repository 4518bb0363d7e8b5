package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/container"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// mustNewWithProfile is NewWithProfile, failing on error.
func mustNewWithProfile(p Profile, opts ...Option) *Cluster {
	c, err := NewWithProfile(p, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// trialScript provisions two users and drives the cluster through
// every subsystem a campaign trial can touch (see runScript), returning
// a digest of everything observable. Two clusters are behaviourally
// equal iff their digests match.
func trialScript(t *testing.T, c *Cluster) map[string]interface{} {
	t.Helper()
	alice, bob := provision(t, c)
	return runScript(t, c, alice, bob)
}

// provision creates the two users runScript drives, as a pooled fleet
// slot provisions its users before it marks the cluster.
func provision(t *testing.T, c *Cluster) (alice, bob *User) {
	t.Helper()
	alice, err := c.AddUser("alice", "pw-a")
	if err != nil {
		t.Fatal(err)
	}
	bob, err = c.AddUser("bob", "pw-b")
	if err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

// runScript is a trial over two provisioned users: filesystem writes
// in a home and in shared scratch, job submission with an OOM crash,
// GPU assignment, UBF-checked network traffic, portal sessions,
// containers and support-staff escalation. The digest covers the
// users' identities, homes and portal passwords, so a Reset that loses
// any part of their provisioning shows.
func runScript(t *testing.T, c *Cluster, alice, bob *User) map[string]interface{} {
	t.Helper()
	out := map[string]interface{}{}
	out["uids"] = []ids.UID{alice.UID, bob.UID}
	out["egids"] = []ids.GID{alice.Cred.EGID, bob.Cred.EGID}

	// Filesystem: the provisioned home, a file in it, and a shared
	// scratch file.
	actx, bctx := vfs.Ctx(alice.Cred), vfs.Ctx(bob.Cred)
	_, err := c.SharedFS.ReadDir(bctx, alice.HomePath)
	out["home"] = fmt.Sprint(err, c.SharedFS.Chmod(actx, alice.HomePath, 0o770))
	if out["homefiles"], err = c.SharedFS.ReadDir(actx, alice.HomePath); err != nil {
		t.Fatal(err)
	}
	if err := c.SharedFS.WriteFile(actx, alice.HomePath+"/notes", []byte("mine"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.SharedFS.WriteFile(actx, "/scratch/shared/data", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := c.SharedFS.ReadFile(bctx, "/scratch/shared/data")
	out["file"] = fmt.Sprint(string(data), err)

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

	// Proc views: the PID of a process alice starts on the first login
	// node, and what bob's ps shows there.
	out["pid"] = c.Logins[0].Procs.Spawn(alice.Cred, 1, "job").PID
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
	c.Containers.ImportImage("img")
	node := c.Compute[0]
	_, err = c.Containers.Run(alice.Cred, node, c.NS[node.Name], h0, container.RunSpec{Image: "img"})
	out["container"] = fmt.Sprint(err)
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
			pooled := mustNewWithProfile(prof)
			_ = trialScript(t, pooled) // trial 1: dirty everything
			if err := pooled.Reset(); err != nil {
				t.Fatal(err)
			}
			got := trialScript(t, pooled) // trial 2 on the reset cluster

			want := trialScript(t, mustNewWithProfile(prof)) // fresh cluster
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset cluster diverged from fresh:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// The pristine mark may move past provisioning: a cluster that
// provisions two users, marks, runs a trial and Resets must replay the
// trial exactly as a fresh cluster that provisioned and marked the
// same way, round after round. The digest covers the provisioned
// homes, portal passwords and support-staff escalation, so a mark that
// skips the shared filesystem or the portal's enrolments fails here.
// With a login process in the provisioning, that process survives
// every Reset with its PID, and the trial's own spawn gets the PID it
// gets on the fresh cluster, so a mark that skips the process tables
// fails too.
func TestMarkPastProvisioning(t *testing.T) {
	for _, withProc := range []bool{false, true} {
		setup := func(t *testing.T, c *Cluster) (alice, bob *User, pid ids.PID) {
			alice, bob = provision(t, c)
			if withProc {
				pid = c.Logins[0].Procs.Spawn(alice.Cred, 1, "analyze", "--token=x").PID
			}
			return alice, bob, pid
		}
		for _, prof := range Profiles() {
			name := prof.Name
			if withProc {
				name += "+login-process"
			}
			t.Run(name, func(t *testing.T) {
				fresh := mustNewWithProfile(prof)
				fa, fb, _ := setup(t, fresh)
				fresh.MarkPristine()
				want := runScript(t, fresh, fa, fb)

				pooled := mustNewWithProfile(prof)
				alice, bob, pid := setup(t, pooled)
				pooled.MarkPristine()
				for round := 0; round < 3; round++ {
					if got := runScript(t, pooled, alice, bob); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d diverged from a fresh provisioned cluster:\n got: %v\nwant: %v", round, got, want)
					}
					if err := pooled.Reset(); err != nil {
						t.Fatal(err)
					}
					if p, ok := pooled.Logins[0].Procs.Lookup(pid); withProc && (!ok || p.Comm != "analyze") {
						t.Fatalf("round %d: process %d spawned before the mark is gone after Reset", round, pid)
					}
				}
			})
		}
	}
}

// A trial cannot change what a pooled slot keeps across Resets: the
// provisioned users' private groups refuse every membership change
// (the registry's mark copies only the mutable groups), and the login
// credentials provisioned before the mark, Groups included, still
// equal what the registry derives after a trial that added the users
// to a project group and a Reset.
func TestMarkedUsersCannotChange(t *testing.T) {
	c := mustNewWithProfile(EnhancedProfile())
	alice, bob := provision(t, c)
	c.MarkPristine()
	kept := []ids.Credential{alice.Cred.Clone(), bob.Cred.Clone()}

	for _, u := range []*User{alice, bob} {
		other := alice
		if u == alice {
			other = bob
		}
		if err := c.Registry.AddToGroup(ids.Root, u.Primary, other.UID); !errors.Is(err, ids.ErrPrivateGroup) {
			t.Errorf("AddToGroup(private group of %s) = %v, want ErrPrivateGroup", u.Name, err)
		}
	}
	g, err := c.AddProjectGroup("trialproj", alice.UID, bob.UID)
	if err != nil {
		t.Fatal(err)
	}
	if login, err := c.Registry.LoginCredential(bob.UID); err != nil || !login.InGroup(g.GID) {
		t.Fatalf("bob's login credential %v, %v lacks the trial group %d", login, err, g.GID)
	}
	_ = runScript(t, c, alice, bob)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, u := range []*User{alice, bob} {
		if !reflect.DeepEqual(u.Cred, kept[i]) {
			t.Errorf("%s's kept credential changed during the trial: %v, want %v", u.Name, u.Cred, kept[i])
		}
		login, err := c.Registry.LoginCredential(u.UID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(login, kept[i]) {
			t.Errorf("%s's login credential after Reset = %v, want the marked %v", u.Name, login, kept[i])
		}
		pg, err := c.Registry.Group(u.Primary)
		if err != nil {
			t.Fatal(err)
		}
		if m := pg.Members(); !pg.Private || len(m) != 1 || m[0] != u.UID {
			t.Errorf("%s's private group after Reset: private %v, members %v", u.Name, pg.Private, m)
		}
	}
}

// Support staff provisioned before the mark stay whitelisted for
// seepid and smask_relax across Resets, including one after a trial
// that staffed someone else (which swaps the tools); the trial's own
// staff do not survive.
func TestMarkKeepsSupportStaff(t *testing.T) {
	c := mustNewWithProfile(EnhancedProfile())
	carol, err := c.AddSupportStaff("carol", "pw-c")
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPristine()
	for round := 0; round < 3; round++ {
		if _, err := c.Seepid.Elevate(carol.Cred); err != nil {
			t.Fatalf("round %d: marked staff cannot seepid: %v", round, err)
		}
		if _, err := c.SmaskRelax.Enter(vfs.Ctx(carol.Cred)); err != nil {
			t.Fatalf("round %d: marked staff cannot smask_relax: %v", round, err)
		}
		dave, err := c.AddSupportStaff("dave", "pw-d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Seepid.Elevate(dave.Cred); err != nil {
			t.Fatalf("round %d: trial staff cannot seepid: %v", round, err)
		}
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Seepid.Elevate(dave.Cred); err == nil {
			t.Fatalf("round %d: trial staff still whitelisted after Reset", round)
		}
	}
}

// Reset must be repeatable across many rounds without drift — the
// campaign case (one cluster, many replications).
func TestClusterResetManyRounds(t *testing.T) {
	c := mustNewWithProfile(EnhancedProfile())
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
	c := mustNewWithProfile(EnhancedProfile())
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
	if _, err := n.OpenDev(alice.Cred, dev.DevPath); !errors.Is(err, simos.ErrPermission) {
		t.Errorf("device %s still open to alice after Reset: err %v", dev.DevPath, err)
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
