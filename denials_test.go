package repro

import (
	"errors"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// denialScene is an enhanced cluster with two users who share no
// group: owner runs a GPU job, listens on compute node 0 and serves a
// portal app there; stranger is logged in to the portal.
type denialScene struct {
	c               *core.Cluster
	owner, stranger *core.User
	gpuNode         string
	tok             string
}

func newDenialScene(t *testing.T) *denialScene {
	t.Helper()
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	stranger, _ := c.AddUser("stranger", "pw")
	j, err := c.Sched.Submit(owner.Cred, sched.JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	job, err := c.Sched.Job(j)
	if err != nil || job.State != sched.Running {
		t.Fatalf("owner's gpu job not running: %v", err)
	}
	h0, _ := c.Host(c.Compute[0].Name)
	if _, err := h0.Listen(owner.Cred, netsim.TCP, 9000); err != nil {
		t.Fatal(err)
	}
	if _, err := portal.Serve(h0, owner.Cred, 8888); err != nil {
		t.Fatal(err)
	}
	for path, port := range map[string]int{"/app": 8888, "/gone": 8889} {
		if _, err := c.Portal.Register(owner.Cred, path, c.Compute[0].Name, port); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := c.Portal.Login(stranger.Cred, "pw")
	if err != nil {
		t.Fatal(err)
	}
	octx := vfs.Ctx(owner.Cred)
	if err := c.SharedFS.WriteFile(octx, "/scratch/shared/owned", []byte("d"), 0o600); err != nil {
		t.Fatal(err)
	}
	return &denialScene{c: c, owner: owner, stranger: stranger, gpuNode: job.Nodes[0], tok: tok}
}

// as reports whether errors.As finds a *T in err.
func as[T any, P interface {
	*T
	error
}](err error) bool {
	var target P
	return errors.As(err, &target)
}

// TestDenialErrorText drives each separation mechanism's refusal on a
// live cluster and checks the typed error it returns: Error() is the
// text the same refusal read when it was built with fmt.Errorf (the
// literals were recorded from that code), errors.Is finds the
// mechanism's sentinel, and errors.As extracts the typed value.
func TestDenialErrorText(t *testing.T) {
	ss := newDenialScene(t)
	c, owner, stranger := ss.c, ss.owner, ss.stranger
	sctx, octx := vfs.Ctx(stranger.Cred), vfs.Ctx(owner.Cred)
	local := c.LocalFS[c.Logins[0].Name]
	h1, _ := c.Host(c.Compute[1].Name)
	cases := []struct {
		name     string
		deny     func() error
		want     string
		sentinel error
		typed    func(error) bool
	}{
		{"vfs/search", func() error {
			_, err := c.SharedFS.ReadFile(sctx, owner.HomePath+"/results.csv")
			return err
		}, `vfs: permission denied: search "/home/owner"`, vfs.ErrPermission, as[vfs.PathError]},
		{"vfs/read", func() error {
			_, err := c.SharedFS.ReadFile(sctx, "/scratch/shared/owned")
			return err
		}, "vfs: permission denied: read /scratch/shared/owned", vfs.ErrPermission, as[vfs.PathError]},
		{"vfs/not-exist", func() error {
			_, err := c.SharedFS.ReadFile(sctx, "/scratch/shared/missing")
			return err
		}, "vfs: no such file or directory: /scratch/shared/missing", vfs.ErrNotExist, as[vfs.PathError]},
		{"vfs/not-dir", func() error {
			_, err := c.SharedFS.ReadFile(octx, "/scratch/shared/owned/x")
			return err
		}, "vfs: not a directory: scratch/shared/owned", vfs.ErrNotDir, as[vfs.PathError]},
		{"vfs/mkdir", func() error {
			return c.SharedFS.Mkdir(sctx, owner.HomePath+"/sub", 0o755)
		}, "vfs: permission denied: mkdir /home/owner/sub", vfs.ErrPermission, as[vfs.PathError]},
		{"vfs/chmod", func() error {
			return c.SharedFS.Chmod(sctx, "/scratch/shared/owned", 0o644)
		}, "vfs: permission denied: chmod /scratch/shared/owned", vfs.ErrPermission, as[vfs.PathError]},
		{"vfs/symlink-exists", func() error {
			if err := local.WriteFile(octx, "/tmp/taken", nil, 0o600); err != nil {
				return err
			}
			return local.Symlink(sctx, "/tmp/elsewhere", "/tmp/taken")
		}, "vfs: file exists: /tmp/taken", vfs.ErrExist, as[vfs.PathError]},
		{"vfs/protected-symlink", func() error {
			if err := local.Symlink(sctx, "/tmp/elsewhere", "/tmp/planted"); err != nil {
				return err
			}
			return local.WriteFileFollow(octx, "/tmp/planted", []byte("x"), 0o600)
		}, "vfs: symlink following denied by protected_symlinks: /tmp/planted (link owner 1001)", vfs.ErrProtectedSymlink, as[vfs.SymlinkError]},
		{"vfs/acl-user", func() error {
			return c.SharedFS.SetfaclUser(octx, "/scratch/shared/owned", stranger.UID, 0o4)
		}, "vfs: acl grant rejected by group-membership restriction: uid 1000 and uid 1001 share no project group", vfs.ErrACLDenied, as[vfs.ACLError]},
		{"vfs/acl-group", func() error {
			return c.SharedFS.SetfaclGroup(octx, "/scratch/shared/owned", stranger.Cred.EGID, 0o4)
		}, "vfs: acl grant rejected by group-membership restriction: gid 1004 (caller uid 1000 not a member)", vfs.ErrACLDenied, as[vfs.ACLError]},
		{"netsim/dropped", func() error {
			_, err := h1.Dial(stranger.Cred, netsim.TCP, c.Compute[0].Name, 9000)
			return err
		}, "netsim: connection dropped by firewall: tcp c01:32768 -> c00:9000", netsim.ErrConnDropped, as[netsim.FlowError]},
		{"netsim/refused", func() error {
			_, err := h1.Dial(stranger.Cred, netsim.TCP, c.Compute[0].Name, 9001)
			return err
		}, "netsim: connection refused: tcp c01:32769 -> c00:9001", netsim.ErrConnRefused, as[netsim.FlowError]},
		{"netsim/qp-via-tcp", func() error {
			_, err := h1.SetupQP(stranger.Cred, netsim.QPViaTCP, c.Compute[0].Name, 9000)
			return err
		}, "rdma qp setup via tcp: netsim: connection dropped by firewall: tcp c01:32770 -> c00:9000", netsim.ErrConnDropped, as[netsim.FlowError]},
		{"gpu/read", func() error {
			_, err := c.GPUs.Devices(ss.gpuNode)[0].Read(stranger.Cred, 0, 1)
			return err
		}, "gpu: device not assigned to caller: simos: operation not permitted: /dev/nvidia0 mode 660 uid 1001", gpu.ErrNotAssigned, as[gpu.DeviceError]},
		{"simos/open-dev", func() error {
			_, err := c.Compute[0].OpenDev(stranger.Cred, "/dev/nvidia1")
			return err
		}, "simos: operation not permitted: /dev/nvidia1 mode 0 uid 1001", simos.ErrPermission, as[simos.DevError]},
		{"simos/pam-slurm", func() error {
			_, err := c.Compute[0].Login(stranger.Cred)
			return err
		}, "simos: access denied by PAM: pam_slurm: uid 1001 has no running job on c00", simos.ErrAccessDenied, as[simos.LoginError]},
		{"portal/forward-denied", func() error {
			_, err := c.Portal.Forward(ss.tok, "/app", []byte("GET /"))
			return err
		}, "portal: 403 forbidden: UBF denied /app for uid 1001: netsim: connection dropped by firewall: tcp portal:32768 -> c00:8888", portal.ErrForbidden, as[portal.ForwardError]},
		{"portal/no-route", func() error {
			_, err := c.Portal.Forward(ss.tok, "/nope", nil)
			return err
		}, "portal: 404 no such application route: /nope", portal.ErrNoRoute, as[portal.ForwardError]},
		{"portal/bad-gateway", func() error {
			_, err := c.Portal.Forward(ss.tok, "/gone", nil)
			return err
		}, "portal: 502 upstream connection failed: netsim: connection refused: tcp portal:32769 -> c00:8889", portal.ErrBadGateway, as[portal.ForwardError]},
		{"container/not-granted", func() error {
			c.Containers.ImportImage("img")
			node := c.Compute[0]
			_, err := c.Containers.Run(stranger.Cred, node, c.NS[node.Name], h1, container.RunSpec{Image: "img"})
			return err
		}, "container: privileged execution refused: uid 1001 not granted singularity privileges", container.ErrPrivileged, as[container.AdmissionError]},
		{"container/privileged", func() error {
			node := c.Compute[0]
			_, err := c.Containers.Run(stranger.Cred, node, c.NS[node.Name], h1, container.RunSpec{Image: "img", RequestPrivileged: true})
			return err
		}, "container: privileged execution refused: uid 1001", container.ErrPrivileged, as[container.AdmissionError]},
	}
	for _, tc := range cases {
		err := tc.deny()
		if err == nil {
			t.Errorf("%s: not denied", tc.name)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s: Error() = %q, want %q", tc.name, got, tc.want)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: errors.Is(%v) = false", tc.name, tc.sentinel)
		}
		if !tc.typed(err) {
			t.Errorf("%s: errors.As found no typed denial in %T", tc.name, err)
		}
	}
	// A PAM refusal keeps the module's own typed refusal as its Cause.
	_, err := c.Compute[0].Login(stranger.Cred)
	var le *simos.LoginError
	if !errors.As(err, &le) || !as[sched.PAMError](le.Cause) || !errors.Is(le.Cause, sched.ErrNoJobOnNode) {
		t.Errorf("pam_slurm refusal %v does not carry a *sched.PAMError", err)
	}
}
