package container

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/simos"
	"repro/internal/ubf"
	"repro/internal/vfs"
)

// world wires a node with an enhanced-policy filesystem and a
// UBF-protected network, plus a registry with alice and bob.
func world(t *testing.T) (*Runtime, *simos.Node, *vfs.Namespace, *netsim.Host, *netsim.Host, map[string]ids.Credential) {
	t.Helper()
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	bob, _ := reg.AddUser("bob")
	node := simos.NewNode("c00", simos.Compute, 8, 1<<30, nil)
	shared := vfs.New("lustre", vfs.Policy{SmaskEnabled: true, Smask: vfs.DefaultSmask, ACLRestrict: true}, reg)
	for _, u := range []*ids.User{alice, bob} {
		if err := shared.CreateHome(u); err != nil {
			t.Fatal(err)
		}
	}
	ns := vfs.NewNamespace()
	if err := ns.Mount("/", shared); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("c00"), n.AddHost("c01")
	d := ubf.New(ubf.Config{})
	d.InstallOn(h1)
	d.InstallOn(h2)
	rt := NewRuntime(false)
	rt.ImportImage("pytorch")
	creds := map[string]ids.Credential{}
	for _, u := range []*ids.User{alice, bob} {
		c, _ := reg.LoginCredential(u.UID)
		creds[u.Name] = c
	}
	return rt, node, ns, h1, h2, creds
}

func TestRunAsInvokingUserNoEscalation(t *testing.T) {
	rt, node, ns, h1, _, creds := world(t)
	c, err := rt.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	// uid inside == uid outside.
	if c.Proc.Cred.UID != creds["alice"].UID {
		t.Errorf("container uid = %d, want %d", c.Proc.Cred.UID, creds["alice"].UID)
	}
	// Privileged execution refused.
	if _, err := rt.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch", RequestPrivileged: true}); !errors.Is(err, ErrPrivileged) {
		t.Errorf("privileged run err = %v, want ErrPrivileged", err)
	}
	// Missing image.
	if _, err := rt.Run(creds["alice"], node, ns, h1, RunSpec{Image: "ghost"}); !errors.Is(err, ErrNoImage) {
		t.Errorf("ghost image err = %v, want ErrNoImage", err)
	}
}

func TestRestrictedRuntimeRequiresGrant(t *testing.T) {
	rt, node, ns, h1, _, creds := world(t)
	restricted := NewRuntime(true)
	restricted.ImportImage("pytorch")
	if _, err := restricted.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch"}); !errors.Is(err, ErrPrivileged) {
		t.Errorf("ungranted run err = %v, want ErrPrivileged", err)
	}
	restricted.Allow(creds["alice"].UID)
	if _, err := restricted.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch"}); err != nil {
		t.Errorf("granted run: %v", err)
	}
	_ = rt
}

func TestFilesystemControlsPassThrough(t *testing.T) {
	// The paper's claim: smask and home isolation apply inside the
	// container because the host FS is passed through.
	rt, node, ns, h1, _, creds := world(t)
	ca, err := rt.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	// A world-readable write and chmod in world-writable scratch, made
	// through the container's bind mount with its user's credential.
	shared, _, err := ns.Resolve("/scratch")
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	actx := vfs.Ctx(ca.Cred)
	if err := ca.NS.WriteFile(actx, "/scratch/model.pt", []byte("weights"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := shared.Chmod(actx, "/scratch/model.pt", 0o666); err != nil {
		t.Fatal(err)
	}
	// smask masked the world bits even from inside the container, so
	// bob's container reads neither the file nor alice's home.
	cb, err := rt.Run(creds["bob"], node, ns, h1, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.ReadFile("/scratch/model.pt"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("world-bit read inside container err = %v, want ErrPermission (smask bypassed)", err)
	}
	if _, err := cb.ReadFile("/home/alice/.bashrc"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("cross-home read inside container err = %v, want ErrPermission", err)
	}
}

func TestNetworkControlsPassThrough(t *testing.T) {
	// The UBF sees the container's real user: cross-user connections
	// from inside a container are still dropped.
	rt, node, ns, h1, h2, creds := world(t)
	ca, err := rt.Run(creds["alice"], node, ns, h1, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Net.Listen(ca.Cred, netsim.TCP, 8888); err != nil {
		t.Fatal(err)
	}
	// Bob's container on another host dials alice's service: dropped.
	cb, err := rt.Run(creds["bob"], node, ns, h2, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Dial(netsim.TCP, "c00", 8888); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("cross-user dial from container err = %v, want drop", err)
	}
	// Alice dialing her own containerized service works.
	ca2, err := rt.Run(creds["alice"], node, ns, h2, RunSpec{Image: "pytorch"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca2.Dial(netsim.TCP, "c00", 8888); err != nil {
		t.Errorf("same-user dial from container: %v", err)
	}
}

// Reset must drop imported images and privilege grants but keep the
// restrict policy.
func TestRuntimeReset(t *testing.T) {
	r := NewRuntime(true)
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	r.ImportImage("img")
	r.Allow(alice.UID)
	r.Reset()
	if _, ok := r.images["img"]; ok {
		t.Error("image survived Reset")
	}
	r.ImportImage("img")
	node := simos.NewNode("c0", simos.Compute, 4, 1<<30, nil)
	if _, err := r.Run(alice, node, vfs.NewNamespace(), nil, RunSpec{Image: "img"}); err == nil {
		t.Error("privilege grant survived Reset under restrict")
	}
}
