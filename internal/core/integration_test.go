package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/container"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// TestProjectCollaborationEndToEnd walks the paper's intended-sharing
// story across every subsystem at once: two project members
// collaborate via the project directory, an sg-group service, and a
// shared portal app, while an outsider is excluded everywhere.
func TestProjectCollaborationEndToEnd(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	lead, _ := c.AddUser("lead", "pw")
	member, _ := c.AddUser("member", "pw")
	outsider, _ := c.AddUser("outsider", "pw")
	g, err := c.AddProjectGroup("fusion", lead.UID, member.UID)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*User{lead, member} {
		if err := c.Refresh(u); err != nil {
			t.Fatal(err)
		}
	}

	// Filesystem: the lead drops a dataset into the project area.
	if err := c.SharedFS.WriteFile(vfs.Ctx(lead.Cred), "/proj/fusion/mesh.dat", []byte("mesh"), 0o660); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(member.Cred), "/proj/fusion/mesh.dat"); err != nil {
		t.Errorf("member read: %v", err)
	}
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(outsider.Cred), "/proj/fusion/mesh.dat"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("outsider read err = %v", err)
	}

	// Network: the lead starts a result server under `sg fusion` so
	// the member's job can stream to it.
	leadProj, err := c.Registry.SwitchGroup(lead.Cred, g.GID)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := c.Host(c.Compute[0].Name)
	if _, err := h0.Listen(leadProj, netsim.TCP, 7777); err != nil {
		t.Fatal(err)
	}
	h1, _ := c.Host(c.Compute[1].Name)
	if _, err := h1.Dial(member.Cred, netsim.TCP, c.Compute[0].Name, 7777); err != nil {
		t.Errorf("member dial to sg-group service: %v", err)
	}
	if _, err := h1.Dial(outsider.Cred, netsim.TCP, c.Compute[0].Name, 7777); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("outsider dial err = %v", err)
	}

	// Scheduler: both members run jobs; whole-node-per-user still
	// keeps their *nodes* separate (the policy is per user, not per
	// project).
	jl, _ := c.Sched.Submit(lead.Cred, sched.JobSpec{Name: "solve", Command: "solve", Cores: 4, MemB: 1, Duration: 5})
	jm, _ := c.Sched.Submit(member.Cred, sched.JobSpec{Name: "post", Command: "post", Cores: 4, MemB: 1, Duration: 5})
	c.Step()
	gl, _ := c.Sched.Job(jl)
	gm, _ := c.Sched.Job(jm)
	if gl.State != sched.Running || gm.State != sched.Running {
		t.Fatalf("jobs %v %v", gl.State, gm.State)
	}
	if gl.Nodes[0] == gm.Nodes[0] {
		t.Errorf("two users share node %s under user-wholenode", gl.Nodes[0])
	}

	// Portal: the lead's dashboard is reachable by the lead only
	// (portal forwards as the session user; the app listener is under
	// the lead's private group unless restarted with sg).
	ph, _ := c.Host(gl.Nodes[0])
	if _, err := portal.Serve(ph, lead.Cred, 8800); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Portal.Register(lead.Cred, "/dash", gl.Nodes[0], 8800); err != nil {
		t.Fatal(err)
	}
	ltok, _ := c.Portal.Login(lead.Cred, "pw")
	if _, err := c.Portal.Forward(ltok, "/dash", []byte("GET /")); err != nil {
		t.Errorf("lead forward: %v", err)
	}
	mtok, _ := c.Portal.Login(member.Cred, "pw")
	if _, err := c.Portal.Forward(mtok, "/dash", nil); !errors.Is(err, portal.ErrForbidden) {
		t.Errorf("member forward err = %v (listener not under sg)", err)
	}

	// Containers: the member's containerized tool reads the project
	// data through the passthrough mount.
	c.Containers.ImportImage("tools")
	c.Containers.Allow(member.UID)
	node := c.Compute[2]
	nh, _ := c.Host(node.Name)
	ct, err := c.Containers.Run(member.Cred, node, c.NS[node.Name], nh, container.RunSpec{Image: "tools"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.ReadFile("/proj/fusion/mesh.dat"); err != nil {
		t.Errorf("container project read: %v", err)
	}
}

// TestExternalNodeCrashFailsJobs injects a hardware failure and
// verifies the scheduler notices, fails the jobs, and reschedules new
// work around the dead node until it is restored.
func TestExternalNodeCrashFailsJobs(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	u, _ := c.AddUser("alice", "pw")
	j, err := c.Sched.Submit(u.Cred, sched.JobSpec{Name: "long", Command: "x", Cores: 2, MemB: 1, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	running, _ := c.Sched.Job(j)
	node, _ := c.Node(running.Nodes[0])
	node.Crash()
	c.Step()
	failed, _ := c.Sched.Job(j)
	if failed.State != sched.Failed {
		t.Fatalf("job state after crash = %v, want Failed", failed.State)
	}
	// New work schedules around the dead node.
	j2, _ := c.Sched.Submit(u.Cred, sched.JobSpec{Name: "retry", Command: "x", Cores: 2, MemB: 1, Duration: 2})
	c.Step()
	r2, _ := c.Sched.Job(j2)
	if r2.State != sched.Running {
		t.Fatalf("retry state %v", r2.State)
	}
	if r2.Nodes[0] == node.Name {
		t.Errorf("retry placed on dead node")
	}
	node.Restore()
	c.RunAll(20)
	done, _ := c.Sched.Job(j2)
	if done.State != sched.Completed {
		t.Errorf("retry final state %v", done.State)
	}
}

// TestMixedTrafficVerdicts drives the UBF with 16 dialers of 50 dials
// each, same-user (allowed) and cross-user (denied) flows interleaved
// from three source nodes, and checks every verdict and the fabric's
// tallies.
func TestMixedTrafficVerdicts(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	users := make([]*User, 4)
	for i := range users {
		users[i], _ = c.AddUser(fmt.Sprintf("user%d", i), "pw")
	}
	// One service per user, all on c00.
	h0, _ := c.Host(c.Compute[0].Name)
	for i, u := range users {
		if _, err := h0.Listen(u.Cred, netsim.TCP, 9000+i); err != nil {
			t.Fatal(err)
		}
	}
	var own, cross int64
	for i := 0; i < 50; i++ {
		for w := 0; w < 16; w++ {
			src, _ := c.Host(c.Compute[1+w%3].Name)
			me := users[w%4]
			target := (w + i) % 4
			conn, err := src.Dial(me.Cred, netsim.TCP, c.Compute[0].Name, 9000+target)
			if target != w%4 {
				cross++
				if err == nil {
					t.Errorf("cross-user dial from %d to %d succeeded", w%4, target)
				}
				continue
			}
			own++
			if err != nil {
				t.Errorf("own dial failed: %v", err)
				continue
			}
			if err := conn.Send([]byte("d")); err != nil {
				t.Error(err)
			}
			conn.Close()
		}
	}
	if got := c.Net.NewConnAccepted.Load(); got != own {
		t.Errorf("fabric accepted %d flows, want the %d own-user dials", got, own)
	}
	if got := c.Net.NewConnDropped.Load(); got != cross {
		t.Errorf("fabric dropped %d flows, want the %d cross-user dials", got, cross)
	}
}

// TestMPICampaignThroughEnhancedCluster runs several multi-node MPI
// jobs from different users concurrently, each doing its rank
// exchange through the UBF-guarded fabric.
func TestMPICampaignThroughEnhancedCluster(t *testing.T) {
	c := MustNew(Enhanced(), Topology{ComputeNodes: 6, LoginNodes: 1, CoresPerNode: 4, MemPerNode: 1 << 20, GPUsPerNode: 0})
	users := make([]*User, 2)
	for i := range users {
		users[i], _ = c.AddUser(fmt.Sprintf("user%d", i), "pw")
	}
	var jobs []int
	for i, u := range users {
		j, err := c.Sched.Submit(u.Cred, sched.JobSpec{
			Name: fmt.Sprintf("mpi%d", i), Command: "xhpl",
			Cores: 12, MemB: 1, Duration: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	c.Step()
	for i, id := range jobs {
		running, _ := c.Sched.Job(id)
		if running.State != sched.Running {
			t.Fatalf("job %d state %v", id, running.State)
		}
		// Rank 0 binds a port; every other rank dials it as the job's
		// user, which the UBF admits.
		port := 11000 + i
		head, err := c.Host(running.Nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := head.Listen(running.Cred, netsim.TCP, port); err != nil {
			t.Fatal(err)
		}
		for _, name := range running.Nodes[1:] {
			h, err := c.Host(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Dial(running.Cred, netsim.TCP, running.Nodes[0], port); err != nil {
				t.Errorf("job %d: rank on %s: %v", id, name, err)
			}
		}
	}
	// The two jobs' node sets are disjoint (user-wholenode).
	j0, _ := c.Sched.Job(jobs[0])
	j1, _ := c.Sched.Job(jobs[1])
	for _, a := range j0.Nodes {
		for _, b := range j1.Nodes {
			if a == b {
				t.Errorf("node %s shared between users", a)
			}
		}
	}
}
