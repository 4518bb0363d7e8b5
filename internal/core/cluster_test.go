package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

func smallTopo() Topology {
	return Topology{ComputeNodes: 4, LoginNodes: 2, CoresPerNode: 8, MemPerNode: 1 << 20, GPUsPerNode: 2}
}

func TestNewClusterWiring(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	if len(c.Compute) != 4 || len(c.Logins) != 2 {
		t.Fatalf("nodes: %d compute, %d login", len(c.Compute), len(c.Logins))
	}
	// Every node has a namespace, a /proc mount, a local FS and a
	// network host.
	for _, n := range append(append([]*simos.Node(nil), c.Compute...), c.Logins...) {
		if c.NS[n.Name] == nil || c.Proc[n.Name] == nil || c.LocalFS[n.Name] == nil {
			t.Errorf("node %s missing wiring", n.Name)
		}
		if _, err := c.Host(n.Name); err != nil {
			t.Errorf("node %s has no network host: %v", n.Name, err)
		}
	}
	// The portal host exists.
	if _, err := c.Host("portal"); err != nil {
		t.Errorf("portal host: %v", err)
	}
	if _, err := c.Node("ghost"); err == nil {
		t.Errorf("ghost node resolved")
	}
}

func TestAddUserProvisioning(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	u, err := c.AddUser("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Home exists, root-owned, private-group-owned (hardened): the
	// user writes there through the group class but cannot chmod it,
	// and nobody else lists it.
	ctx := vfs.Ctx(u.Cred)
	if err := c.SharedFS.WriteFile(ctx, u.HomePath+"/f", nil, 0o600); err != nil {
		t.Errorf("hardened home: owner's write: %v", err)
	}
	if err := c.SharedFS.Chmod(ctx, u.HomePath, 0o777); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("hardened home: user chmod err = %v, want ErrPermission (root-owned)", err)
	}
	other, err := c.AddUser("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SharedFS.ReadDir(vfs.Ctx(other.Cred), u.HomePath); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("hardened home: another user's listing err = %v, want ErrPermission", err)
	}
	// Portal login works.
	if _, err := c.Portal.Login(u.Cred, "pw"); err != nil {
		t.Errorf("portal login: %v", err)
	}
	// Duplicate user rejected.
	if _, err := c.AddUser("alice", "pw"); !errors.Is(err, ids.ErrExists) {
		t.Errorf("dup user err = %v", err)
	}
}

func TestBaselineHomeIsWorldSearchable(t *testing.T) {
	c := MustNew(BaselineProfile().MustConfig(), smallTopo())
	u, err := c.AddUser("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.AddUser("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SharedFS.ReadDir(vfs.Ctx(other.Cred), u.HomePath); err != nil {
		t.Errorf("baseline home: another user's listing: %v, want it world-searchable", err)
	}
	// The baseline user CAN chmod their own home (that is the hazard).
	if err := c.SharedFS.Chmod(vfs.Ctx(u.Cred), u.HomePath, 0o777); err != nil {
		t.Errorf("baseline self-chmod: %v", err)
	}
}

func TestAddProjectGroupProvisioning(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	lead, _ := c.AddUser("lead", "pw")
	member, _ := c.AddUser("member", "pw")
	_, err := c.AddProjectGroup("fusion", lead.UID, member.UID)
	if err != nil {
		t.Fatal(err)
	}
	// Group membership takes effect at next login.
	if err := c.Refresh(lead); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(member); err != nil {
		t.Fatal(err)
	}
	// Members can collaborate in the shared dir: its setgid bit gives a
	// lead's group-only file the project group, so a member reads it.
	if err := c.SharedFS.WriteFile(vfs.Ctx(lead.Cred), "/proj/fusion/plan.md", []byte("x"), 0o660); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(member.Cred), "/proj/fusion/plan.md"); err != nil {
		t.Errorf("member read: %v", err)
	}
	// Strangers cannot.
	stranger, _ := c.AddUser("stranger", "pw")
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(stranger.Cred), "/proj/fusion/plan.md"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("stranger read err = %v", err)
	}
}

func TestSupportStaffTooling(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	user, _ := c.AddUser("alice", "pw")
	staff, err := c.AddSupportStaff("facilitator", "pw")
	if err != nil {
		t.Fatal(err)
	}
	// Victim process on a login node.
	login := c.Logins[0]
	login.Procs.Spawn(user.Cred, 1, "job.sh", "--data=/secret")
	view := c.Proc[login.Name]
	// Before seepid, staff are bound by hidepid like everyone else —
	// support-group membership alone grants nothing.
	for _, p := range view.List(staff.Cred) {
		if p.Cred.UID == user.UID {
			t.Errorf("staff saw foreign pid %d before seepid", p.PID)
		}
	}
	elevated, err := c.Seepid.Elevate(staff.Cred)
	if err != nil {
		t.Fatalf("seepid elevate: %v", err)
	}
	found := false
	for _, p := range view.List(elevated) {
		if p.Cred.UID == user.UID {
			found = true
		}
	}
	if !found {
		t.Errorf("elevated staff cannot see user processes")
	}
	// Ordinary users cannot elevate.
	if _, err := c.Seepid.Elevate(user.Cred); err == nil {
		t.Errorf("ordinary user elevated via seepid")
	}
	// smask_relax: staff publishes a dataset world-readable.
	relaxed, err := c.SmaskRelax.Enter(vfs.Ctx(staff.Cred))
	if err != nil {
		t.Fatalf("smask_relax enter: %v", err)
	}
	rootCtx := vfs.Context{Cred: ids.RootCred()}
	if err := c.SharedFS.MkdirAll(rootCtx, "/proj/datasets", 0o755); err != nil {
		t.Fatal(err)
	}
	// The dataset area is maintained by support staff.
	if err := c.SharedFS.Chown(rootCtx, "/proj/datasets", staff.UID, ids.NoGID); err != nil {
		t.Fatal(err)
	}
	if err := c.SharedFS.WriteFile(relaxed, "/proj/datasets/imagenet.idx", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SharedFS.ReadFile(vfs.Ctx(user.Cred), "/proj/datasets/imagenet.idx"); err != nil {
		t.Errorf("published dataset unreadable: %v", err)
	}
}

func TestClusterStepAdvancesClock(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	u, _ := c.AddUser("alice", "pw")
	j, err := c.Sched.Submit(u.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 1, MemB: 1, Duration: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := c.clock.Load()
	c.Step()
	if c.clock.Load() != before+1 {
		t.Errorf("clock did not advance")
	}
	c.RunAll(10)
	got, _ := c.Sched.Job(j)
	if got.State != sched.Completed {
		t.Errorf("job state %v", got.State)
	}

	// Submissions from three users interleaved with steps: no node
	// ever hosts two users at once, and every job ends up in the
	// accounting.
	users := []*User{u}
	for i := 1; i < 3; i++ {
		v, err := c.AddUser(fmt.Sprintf("user%d", i), "pw")
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, v)
	}
	for i := 0; i < 30; i++ {
		for _, v := range users {
			if _, err := c.Sched.Submit(v.Cred, sched.JobSpec{
				Name: "w", Command: "x", Cores: 1 + i%4, MemB: 1, Duration: int64(1 + i%3),
			}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		c.Step()
	}
	c.RunAll(5000)
	if n := c.Sched.PeakUsersPerNode(); n != 1 {
		t.Errorf("peak users per node = %d, want 1 under user-wholenode", n)
	}
	if got := len(c.Sched.Sacct(ids.RootCred())); got != 1+90 {
		t.Errorf("accounting rows = %d, want 91", got)
	}
}

func TestEnhancedEndToEndJobWithNetwork(t *testing.T) {
	// An MPI-ish flow through the fully wired enhanced cluster: same
	// user traffic between job nodes is admitted by the UBF.
	c := MustNew(Enhanced(), smallTopo())
	u, _ := c.AddUser("alice", "pw")
	j, err := c.Sched.Submit(u.Cred, sched.JobSpec{Name: "mpi", Command: "xhpl", Cores: 16, MemB: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	job, _ := c.Sched.Job(j)
	if job.State != sched.Running || len(job.Nodes) < 2 {
		t.Fatalf("job %v on %v", job.State, job.Nodes)
	}
	h0, _ := c.Host(job.Nodes[0])
	h1, _ := c.Host(job.Nodes[1])
	if _, err := h0.Listen(u.Cred, netsim.TCP, 11000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(u.Cred, netsim.TCP, job.Nodes[0], 11000); err != nil {
		t.Errorf("same-user rank dial through UBF: %v", err)
	}
}

func TestConfigPresets(t *testing.T) {
	b, e := BaselineProfile().MustConfig(), Enhanced()
	if b.Name != "baseline" || e.Name != "enhanced" {
		t.Errorf("names %q %q", b.Name, e.Name)
	}
	if b.UBFEnabled || b.PrivateData || b.SmaskEnabled || b.PamSlurm || b.HardenedHomes {
		t.Errorf("baseline has hardening on: %+v", b)
	}
	if !e.UBFEnabled || !e.PrivateData || !e.SmaskEnabled || !e.PamSlurm || !e.GPUClear {
		t.Errorf("enhanced missing hardening: %+v", e)
	}
	topo := DefaultTopology()
	if topo.ComputeNodes == 0 || topo.CoresPerNode == 0 {
		t.Errorf("bad default topo: %+v", topo)
	}
}

func TestLoginShellAndErrors(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	u, _ := c.AddUser("alice", "pw")
	// Login nodes admit anyone (no pam_slurm there).
	sh, err := c.LoginShell(c.Logins[0].Name, u.Cred)
	if err != nil || sh.Comm != "bash" {
		t.Fatalf("login-node shell: %v %v", sh, err)
	}
	// Compute nodes deny without a job.
	if _, err := c.LoginShell(c.Compute[0].Name, u.Cred); err == nil {
		t.Errorf("jobless compute login succeeded")
	}
	// Unknown node.
	if _, err := c.LoginShell("ghost", u.Cred); err == nil {
		t.Errorf("ghost node login succeeded")
	}
}

func TestAddProjectGroupErrors(t *testing.T) {
	c := MustNew(Enhanced(), smallTopo())
	lead, _ := c.AddUser("lead", "pw")
	if _, err := c.AddProjectGroup("p1", lead.UID, 99999); err == nil {
		t.Errorf("bogus member accepted")
	}
	if _, err := c.AddProjectGroup("p2", lead.UID); err != nil {
		t.Fatal(err)
	}
	// Duplicate group name fails.
	if _, err := c.AddProjectGroup("p2", lead.UID); err == nil {
		t.Errorf("duplicate project group accepted")
	}
}
