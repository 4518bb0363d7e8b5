package attack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// TestVerdictOfRefusalTable feeds verdictOf one value of every typed
// denial in DESIGN.md §7's table: a refusal sentinel reads denied, the
// same type carrying ErrExist or ErrNotExist inconclusive, and so does
// any error of a failed setup, a typed refusal included.
func TestVerdictOfRefusalTable(t *testing.T) {
	flow := netsim.FlowTuple{Proto: netsim.TCP, SrcHost: "login1", DstHost: "node0", DstPort: victimSvcPort}
	cases := []struct {
		name    string
		err     error
		present bool
		want    audit.Verdict
	}{
		{"vfs.PathError/ErrPermission", &vfs.PathError{Op: "search", Path: "/home/victim", Err: vfs.ErrPermission}, false, audit.Denied},
		{"vfs.PathError/ErrExist", &vfs.PathError{Path: "/tmp/x", Err: vfs.ErrExist}, false, audit.Inconclusive},
		{"vfs.PathError/ErrNotExist", &vfs.PathError{Path: "/tmp/x", Err: vfs.ErrNotExist}, false, audit.Inconclusive},
		{"vfs.SymlinkError", &vfs.SymlinkError{Path: "/tmp/x", Owner: 1001}, false, audit.Denied},
		{"vfs.ACLError", &vfs.ACLError{Caller: 1000, UID: 1001, User: true}, false, audit.Denied},
		{"netsim.FlowError/ErrConnDropped", &netsim.FlowError{Flow: flow, Err: netsim.ErrConnDropped}, false, audit.Denied},
		{"netsim.FlowError/ErrConnRefused", &netsim.FlowError{Flow: flow, Err: netsim.ErrConnRefused}, false, audit.Inconclusive},
		{"netsim.FlowError/ErrExist", &netsim.FlowError{Flow: flow, Err: vfs.ErrExist}, false, audit.Inconclusive},
		{"netsim.FlowError/ErrNotExist", &netsim.FlowError{Flow: flow, Err: vfs.ErrNotExist}, false, audit.Inconclusive},
		{"sched.PAMError", &sched.PAMError{UID: 1001, Node: "node0"}, false, audit.Denied},
		{"simos.LoginError", &simos.LoginError{Cause: &sched.PAMError{UID: 1001, Node: "node0"}}, false, audit.Denied},
		{"simos.DevError", &simos.DevError{Path: "/dev/nvidia0", UID: 1001}, false, audit.Denied},
		{"gpu.DeviceError", &gpu.DeviceError{Cause: &simos.DevError{Path: "/dev/nvidia0", UID: 1001}}, false, audit.Denied},
		{"portal.ForwardError/ErrForbidden", &portal.ForwardError{Path: "/jupyter/victim", Err: portal.ErrForbidden}, false, audit.Denied},
		{"portal.ForwardError/ErrBadGateway", &portal.ForwardError{Path: "/jupyter/victim", Err: portal.ErrBadGateway}, false, audit.Inconclusive},
		{"portal.ForwardError/ErrExist", &portal.ForwardError{Path: "/jupyter/victim", Err: vfs.ErrExist}, false, audit.Inconclusive},
		{"portal.ForwardError/ErrNotExist", &portal.ForwardError{Path: "/jupyter/victim", Err: vfs.ErrNotExist}, false, audit.Inconclusive},
		{"container.AdmissionError/ErrPrivileged", &container.AdmissionError{UID: 1001, Err: container.ErrPrivileged, NotGranted: true}, false, audit.Denied},
		{"container.AdmissionError/ErrExist", &container.AdmissionError{UID: 1001, Err: vfs.ErrExist}, false, audit.Inconclusive},
		{"container.AdmissionError/ErrNotExist", &container.AdmissionError{UID: 1001, Err: vfs.ErrNotExist}, false, audit.Inconclusive},
		{"procfs.ErrHidden", procfs.ErrHidden, false, audit.Denied},
		{"procfs.ErrNotFound/live-pid", procfs.ErrNotFound, true, audit.Denied},
		{"procfs.ErrNotFound/dead-pid", procfs.ErrNotFound, false, audit.Inconclusive},
		{"sched.ErrNoSuchJob", fmt.Errorf("%w: 7", sched.ErrNoSuchJob), false, audit.Inconclusive},
		{"victim-job-never-placed", setupFailed(errors.New("victim job never placed (cluster saturated)")), true, audit.Inconclusive},
		{"setup/vfs.PathError/ErrPermission", setupFailed(&vfs.PathError{Path: "/home/victim/results.csv", Err: vfs.ErrPermission}), true, audit.Inconclusive},
		{"empty-view/victim-present", nil, true, audit.Denied},
		{"empty-view/victim-absent", nil, false, audit.Inconclusive},
	}
	for _, tc := range cases {
		o := omitted(audit.Denial("attempt stopped", tc.err), tc.present)
		if got := verdictOf(o); got != tc.want {
			t.Errorf("%s: reads %s, want %s", tc.name, verdictNames[got], verdictNames[tc.want])
		}
		if got := verdictOf(leaked(audit.Denial("evidence", tc.err))); got != audit.Leaked {
			t.Errorf("%s: evidence reads %s, want leaked", tc.name, verdictNames[got])
		}
	}
	o := stopped(audit.Denial("UBF dropped cross-user connection", &netsim.FlowError{Flow: flow, Err: netsim.ErrConnDropped}))
	if n := testing.AllocsPerRun(100, func() { verdictOf(o) }); n != 0 {
		t.Errorf("verdictOf allocates %.0f times per call", n)
	}
}

// TestSetupFailureIsInconclusive: a seed the cluster refuses with a
// typed permission error — /home made untraversable before the victim
// writes its home file — fails provisioning with an error naming the
// seed, whichever entry point provisions. A setup that is still lazy
// and fails — the victim's job never placing on a saturated cluster —
// reads inconclusive, not closed, and the leak scan fails naming the
// entry.
func TestSetupFailureIsInconclusive(t *testing.T) {
	unseedable := func() *core.Cluster {
		c := core.MustNew(core.Enhanced(), attackTopo())
		if err := c.SharedFS.Chmod(vfs.Ctx(ids.RootCred()), "/home", 0o500); err != nil {
			t.Fatal(err)
		}
		return c
	}
	chain := mustCompile(t, "kill-chain")
	for name, provisionOn := range map[string]func(*core.Cluster) error{
		"Provision": func(c *core.Cluster) error { _, err := Provision(c); return err },
		"LeakScan":  func(c *core.Cluster) error { _, err := LeakScan(c); return err },
		"Execute": func(c *core.Cluster) error {
			var rng metrics.RNG
			_, _, err := chain.Execute(c, &rng, 100)
			return err
		},
	} {
		err := provisionOn(unseedable())
		var perm *vfs.PathError
		if !errors.As(err, &perm) || perm.Err != vfs.ErrPermission || !strings.Contains(err.Error(), "victim's home") {
			t.Errorf("%s: error = %v, want the victim's home seed refused", name, err)
		}
	}

	saturated := func() *core.Cluster {
		c := core.MustNew(core.Enhanced(), attackTopo())
		hog, err := c.AddUser("hog", "pw")
		if err != nil {
			t.Fatal(err)
		}
		for range c.Compute {
			spec := sched.JobSpec{Name: "hog", Command: "hog", Cores: attackTopo().CoresPerNode, MemB: 1, Duration: 1 << 30}
			if _, err := c.Sched.Submit(hog.Cred, spec); err != nil {
				t.Fatal(err)
			}
		}
		c.Step()
		return c
	}
	ss, err := provision(saturated())
	if err != nil {
		t.Fatal(err)
	}
	e := entry("squeue-foreign-job")
	r := e.run(ss, e.Name)
	if r.Verdict != audit.Inconclusive || !strings.Contains(r.Detail.String(), "never placed") {
		t.Errorf("%s reads %s (%s) with the victim's job unplaced, want inconclusive", e.Name, verdictNames[r.Verdict], r.Detail)
	}
	rep, err := LeakScan(saturated())
	if err == nil || !strings.Contains(err.Error(), e.Name) {
		t.Fatalf("leak scan error = %v, want one naming %s", err, e.Name)
	}
	if out := rep.Table().Render(); !strings.Contains(out, "INCONCLUSIVE") {
		t.Errorf("report does not render the inconclusive row:\n%s", out)
	}
}
