// Package experiments regenerates the paper's evaluation. The paper
// (an experience/systems paper) publishes no numeric tables; its
// Results section (§V) makes claims. DESIGN.md maps each claim to an
// experiment E1..E15; each function here produces the corresponding
// table, and ablation.go adds E16 — the enhanced-minus-one-measure
// matrix the paper argues qualitatively but never prints.
// cmd/benchharness prints them all; bench_test.go at the repository
// root times the hot paths.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// topo is the standard experiment geometry — the same definition the
// fleet campaign presets build on, so the E tables and their fleet
// re-expressions cannot drift.
func topo() core.Topology {
	return fleet.ExperimentTopology()
}

// drainMix builds a cluster under cfg on the experiment topology,
// provisions and submits spec's mix drawn from a generator seeded with
// seed, and drains it — E4's policy drain and E16's ablation drain.
// It returns the drained cluster and the ticks the drain took, which
// is the last job's end tick. A drain that reaches its tick cap with a
// job still pending or running is an error: the cap is not a makespan.
func drainMix(cfg core.Config, spec workload.MixSpec, seed uint64) (*core.Cluster, int, error) {
	c, err := core.New(cfg, topo())
	if err != nil {
		return nil, 0, err
	}
	mix, err := fleet.ProvisionMix(c, spec, metrics.NewRNG(seed))
	if err != nil {
		return nil, 0, err
	}
	if _, err := workload.SubmitAll(c.Sched, mix); err != nil {
		return nil, 0, err
	}
	ticks := c.RunAll(100000)
	if n := c.Sched.Unfinished(); n > 0 {
		return nil, 0, fmt.Errorf("experiments: drain cut off after %d ticks with %d jobs unfinished", ticks, n)
	}
	return c, ticks, nil
}

// bothConfigs returns the two comparison points, derived from the
// named profiles (baseline first).
func bothConfigs() []core.Config {
	var cfgs []core.Config
	for _, p := range core.Profiles() {
		cfgs = append(cfgs, p.MustConfig())
	}
	return cfgs
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func allowDeny(err error) string {
	if err == nil {
		return "ALLOW"
	}
	return "deny"
}

// E1ProcessVisibility: hidepid sweep × observer role. Claim (§IV-A):
// hidepid=2 hides other users' processes and command lines; support
// staff with the exempt gid (seepid) still see everything.
func E1ProcessVisibility() *metrics.Table {
	t := metrics.NewTable("E1: /proc visibility (hidepid sweep)",
		"hidepid", "observer", "pids listed", "cmdlines readable")
	for _, hide := range []procfs.HidePID{procfs.HidePIDOff, procfs.HidePIDNoRead, procfs.HidePIDInvis} {
		cfg := core.Enhanced()
		cfg.HidePID = hide
		// A seepid exemption with hidepid off is incoherent (nothing
		// to be exempt from) and Validate rejects it; at hidepid=0 the
		// exemption changes no outcome, so drop it for that point.
		cfg.SeepidEnabled = hide != procfs.HidePIDOff
		c := core.MustNew(cfg, topo())
		users := make([]*core.User, 3)
		for i := range users {
			users[i], _ = c.AddUser(fmt.Sprintf("user%d", i), "pw")
		}
		staff, _ := c.AddSupportStaff("support", "pw")
		login := c.Logins[0]
		for _, u := range users {
			for p := 0; p < 20; p++ {
				login.Procs.Spawn(u.Cred, 1, "work", fmt.Sprintf("--run=%d", p))
			}
		}
		view := c.Proc[login.Name]
		elevated, _ := c.Seepid.Elevate(staff.Cred)
		observers := []struct {
			name string
			cred ids.Credential
		}{
			{"user0", users[0].Cred},
			{"support+seepid", elevated},
			{"root", ids.RootCred()},
		}
		for _, o := range observers {
			t.AddRow(int(hide), o.name, len(view.List(o.cred)), len(view.Readable(o.cred)))
		}
	}
	t.AddNote("60 user processes + 3 daemons per login node; hidepid=2 leaves each user only their own 20")
	return t
}

// E2CVEMitigation: CVE-2020-27746-style disclosure — a secret on a
// foreign job's command line — probed through /proc on both configs.
func E2CVEMitigation() *metrics.Table {
	t := metrics.NewTable("E2: CVE-2020-27746-style cmdline disclosure",
		"config", "attacker reads foreign cmdline", "secret exposed")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		victim, _ := c.AddUser("victim", "pw")
		attacker, _ := c.AddUser("attacker", "pw")
		login := c.Logins[0]
		vp := login.Procs.Spawn(victim.Cred, 1, "srun", "--export=MUNGE_KEY=abc123")
		cl, err := c.Proc[login.Name].ReadCmdline(attacker.Cred, vp.PID)
		leaked := err == nil && strings.Contains(cl, "MUNGE_KEY")
		t.AddRow(cfg.Name, yesNo(err == nil), yesNo(leaked))
	}
	t.AddNote("the paper reports hidepid=2 pre-mitigated this class before the CVE was announced")
	return t
}

// E3SchedulerPrivacy: squeue/sacct rows visible per observer. Claim
// (§IV-B): PrivateData hides other users' jobs and accounting.
func E3SchedulerPrivacy() *metrics.Table {
	t := metrics.NewTable("E3: scheduler information visibility",
		"config", "observer", "squeue rows", "sacct rows")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		users := make([]*core.User, 4)
		for i := range users {
			users[i], _ = c.AddUser(fmt.Sprintf("user%d", i), "pw")
			for j := 0; j < 25; j++ {
				if _, err := c.Sched.Submit(users[i].Cred, sched.JobSpec{
					Name: fmt.Sprintf("u%d-j%d", i, j), Command: "run",
					Cores: 1, MemB: 1, Duration: 2,
				}); err != nil {
					panic(err)
				}
			}
		}
		c.Step() // some run, some queue
		for _, o := range []struct {
			name string
			cred ids.Credential
		}{{"user0", users[0].Cred}, {"root", ids.RootCred()}} {
			t.AddRow(cfg.Name, o.name, len(c.Sched.Squeue(o.cred)), len(c.Sched.Sacct(o.cred)))
		}
		c.RunAll(500)
		t.AddRow(cfg.Name, "user0 (after drain)", len(c.Sched.Squeue(users[0].Cred)), len(c.Sched.Sacct(users[0].Cred)))
	}
	t.AddNote("100 jobs from 4 users; PrivateData restricts each user to their own 25")
	return t
}

// E4SchedulingPolicies: utilization / makespan / blast radius across
// the three node-sharing policies under an identical many-short-jobs
// mix with OOM faults injected. Claims (§IV-B): user-wholenode keeps
// one user per node, beats exclusive utilization for small jobs, and
// confines memory blast radius.
func E4SchedulingPolicies() *metrics.Table {
	t := metrics.NewTable("E4: node-sharing policy comparison",
		"policy", "utilization", "makespan(ticks)", "node crashes", "cross-user cofailures", "max users/node")
	for _, pol := range []sched.SharingPolicy{sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode} {
		cfg := core.Enhanced()
		cfg.Policy = pol
		// The mix is the shared fleet.E4Mix definition, built with the
		// table's pinned seed.
		c, ticks, err := drainMix(cfg, fleet.E4Mix(), 4)
		if err != nil {
			panic(err)
		}
		crashes, cofail := c.Sched.Crashes()
		t.AddRow(pol.String(), c.Sched.Utilization(), ticks, crashes, cofail, c.Sched.PeakUsersPerNode())
	}
	t.AddNote("300 short jobs (1-8 cores) from 6 users; every 60th job exceeds its memory request")
	t.AddNote("expected shape: user-wholenode utilization > exclusive, cofailures 0, max 1 user/node")
	return t
}

// E5SSHGate: pam_slurm ssh matrix. Claim (§IV-B): users can only ssh
// into compute nodes where they have a running job.
func E5SSHGate() *metrics.Table {
	t := metrics.NewTable("E5: pam_slurm compute-node ssh gate",
		"config", "ssh attempt", "result")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		alice, _ := c.AddUser("alice", "pw")
		bob, _ := c.AddUser("bob", "pw")
		jobID, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 2, MemB: 1, Duration: 100})
		if err != nil {
			panic(err)
		}
		c.Step()
		job, _ := c.Sched.Job(jobID)
		jobNode := job.Nodes[0]
		other := ""
		for _, n := range c.Compute {
			if n.Name != jobNode {
				other = n.Name
				break
			}
		}
		attempts := []struct {
			desc string
			cred ids.Credential
			node string
		}{
			{"owner -> job node", alice.Cred, jobNode},
			{"owner -> other node", alice.Cred, other},
			{"stranger -> job node", bob.Cred, jobNode},
			{"root -> job node", ids.RootCred(), jobNode},
		}
		for _, a := range attempts {
			_, err := c.LoginShell(a.node, a.cred)
			t.AddRow(cfg.Name, a.desc, allowDeny(err))
		}
	}
	return t
}

// E6FilesystemMatrix: every sharing attempt of §IV-C on both configs.
func E6FilesystemMatrix() *metrics.Table {
	t := metrics.NewTable("E6: filesystem sharing-attempt matrix",
		"attempt", "baseline", "enhanced")
	type outcome struct{ baseline, enhanced string }
	results := map[string]*outcome{}
	order := []string{
		"stranger reads home file",
		"chmod o+r then stranger read",
		"ACL grant to stranger",
		"ACL grant to project member",
		"stranger reads /tmp file content",
		"stranger lists /tmp file names",
		"project member reads /proj file",
	}
	for _, name := range order {
		results[name] = &outcome{}
	}
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		owner, _ := c.AddUser("owner", "pw")
		peer, _ := c.AddUser("peer", "pw")
		stranger, _ := c.AddUser("stranger", "pw")
		if _, err := c.AddProjectGroup("team", owner.UID, peer.UID); err != nil {
			panic(err)
		}
		_ = c.Refresh(owner)
		_ = c.Refresh(peer)
		octx, sctx := vfs.Ctx(owner.Cred), vfs.Ctx(stranger.Cred)
		set := func(name string, leaked bool) {
			v := "blocked"
			if leaked {
				v = "SHARED"
			}
			if cfg.Name == "baseline" {
				results[name].baseline = v
			} else {
				results[name].enhanced = v
			}
		}
		// home
		must(c.SharedFS.WriteFile(octx, owner.HomePath+"/data", []byte("d"), 0o644))
		_, err := c.SharedFS.ReadFile(sctx, owner.HomePath+"/data")
		set(order[0], err == nil)
		// chmod o+r in shared scratch
		must(c.SharedFS.WriteFile(octx, "/scratch/shared/out.dat", []byte("d"), 0o600))
		must(c.SharedFS.Chmod(octx, "/scratch/shared/out.dat", 0o644))
		_, err = c.SharedFS.ReadFile(sctx, "/scratch/shared/out.dat")
		set(order[1], err == nil)
		// ACL to stranger
		errGrant := c.SharedFS.SetfaclUser(octx, "/scratch/shared/out.dat", stranger.UID, 0o4)
		leaked := false
		if errGrant == nil {
			_, err = c.SharedFS.ReadFile(sctx, "/scratch/shared/out.dat")
			leaked = err == nil
		}
		set(order[2], leaked)
		// ACL to project member (intended sharing — should work in both)
		errGrant = c.SharedFS.SetfaclUser(octx, "/scratch/shared/out.dat", peer.UID, 0o4)
		leaked = false
		if errGrant == nil {
			_, err = c.SharedFS.ReadFile(vfs.Ctx(peer.Cred), "/scratch/shared/out.dat")
			leaked = err == nil
		}
		set(order[3], leaked)
		// /tmp content + names on a login node
		ns := c.NS[c.Logins[0].Name]
		must(ns.WriteFile(octx, "/tmp/owner-run42.tmp", []byte("d"), 0o644))
		_, err = ns.ReadFile(sctx, "/tmp/owner-run42.tmp")
		set(order[4], err == nil)
		names, err := ns.ReadDir(sctx, "/tmp")
		sawName := false
		if err == nil {
			for _, n := range names {
				if strings.Contains(n, "owner") {
					sawName = true
				}
			}
		}
		set(order[5], sawName)
		// project dir (intended sharing)
		must(c.SharedFS.WriteFile(octx, "/proj/team/shared.dat", []byte("d"), 0o660))
		_, err = c.SharedFS.ReadFile(vfs.Ctx(peer.Cred), "/proj/team/shared.dat")
		set(order[6], err == nil)
	}
	for _, name := range order {
		t.AddRow(name, results[name].baseline, results[name].enhanced)
	}
	t.AddNote("intended sharing (project group rows) must stay SHARED in both configs")
	t.AddNote("'/tmp file names' is the paper's acknowledged residual channel")
	return t
}

// E7UBFMatrix: the connection matrix of §IV-D on both configs.
func E7UBFMatrix() *metrics.Table {
	t := metrics.NewTable("E7: user-based firewall connection matrix",
		"scenario", "proto", "baseline", "enhanced")
	type key struct{ scenario, proto string }
	results := map[key]map[string]string{}
	var order []key
	record := func(cfg string, scenario, proto string, err error) {
		k := key{scenario, proto}
		if results[k] == nil {
			results[k] = map[string]string{}
			order = append(order, k)
		}
		results[k][cfg] = allowDeny(err)
	}
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		owner, _ := c.AddUser("owner", "pw")
		peer, _ := c.AddUser("peer", "pw")
		stranger, _ := c.AddUser("stranger", "pw")
		if _, err := c.AddProjectGroup("team", owner.UID, peer.UID); err != nil {
			panic(err)
		}
		_ = c.Refresh(owner)
		_ = c.Refresh(peer)
		h0, _ := c.Host(c.Compute[0].Name)
		h1, _ := c.Host(c.Compute[1].Name)
		for _, proto := range []netsim.Proto{netsim.TCP, netsim.UDP} {
			base := 20000
			if proto == netsim.UDP {
				base = 21000
			}
			// Plain listener (egid = owner's private group).
			if _, err := h0.Listen(owner.Cred, proto, base); err != nil {
				panic(err)
			}
			// Group listener via `sg team` (egid = team).
			ownerTeam, err := c.Registry.SwitchGroup(owner.Cred, owner.Cred.Groups[len(owner.Cred.Groups)-1])
			if err != nil {
				panic(err)
			}
			if _, err := h0.Listen(ownerTeam, proto, base+1); err != nil {
				panic(err)
			}
			_, err = h1.Dial(owner.Cred, proto, c.Compute[0].Name, base)
			record(cfg.Name, "same user", proto.String(), err)
			_, err = h1.Dial(peer.Cred, proto, c.Compute[0].Name, base)
			record(cfg.Name, "project peer, no newgrp", proto.String(), err)
			_, err = h1.Dial(peer.Cred, proto, c.Compute[0].Name, base+1)
			record(cfg.Name, "project peer, listener under sg team", proto.String(), err)
			_, err = h1.Dial(stranger.Cred, proto, c.Compute[0].Name, base+1)
			record(cfg.Name, "stranger", proto.String(), err)
		}
	}
	for _, k := range order {
		if results[k]["enhanced"] == "" {
			continue
		}
		t.AddRow(k.scenario, k.proto, results[k]["baseline"], results[k]["enhanced"])
	}
	t.AddNote("rule: allow iff same user, or connector in listener's effective (primary) group")
	return t
}

// E8UBFOverhead: where the UBF spends work — NEW connections pay two
// ident queries (unless cached); established packets ride conntrack.
func E8UBFOverhead() *metrics.Table {
	t := metrics.NewTable("E8: UBF overhead accounting (1000 conns × 100 packets)",
		"config", "hook invocations", "ident queries", "cache hits", "packets inspected")
	for _, variant := range []struct {
		name    string
		enabled bool
		cache   bool
	}{
		{"no firewall (baseline)", false, false},
		{"UBF, no verdict cache", true, false},
		{"UBF + verdict cache", true, true},
	} {
		cfg := core.Enhanced()
		cfg.UBFEnabled = variant.enabled
		cfg.UBFCacheVerdicts = variant.cache
		c := core.MustNew(cfg, topo())
		u, _ := c.AddUser("alice", "pw")
		h0, _ := c.Host(c.Compute[0].Name)
		h1, _ := c.Host(c.Compute[1].Name)
		if _, err := h0.Listen(u.Cred, netsim.TCP, 9000); err != nil {
			panic(err)
		}
		c.Net.ResetStats()
		for i := 0; i < 1000; i++ {
			conn, err := h1.Dial(u.Cred, netsim.TCP, c.Compute[0].Name, 9000)
			if err != nil {
				panic(err)
			}
			for p := 0; p < 100; p++ {
				if err := conn.Send([]byte("payload")); err != nil {
					panic(err)
				}
			}
			conn.Close()
		}
		t.AddRow(variant.name,
			c.Net.HookInvocations.Load(),
			c.Net.IdentQueries.Load(),
			c.UBF.CacheHits.Load(),
			0, // established packets never traverse the hook
		)
	}
	t.AddNote("100000 data packets flowed in every variant; none were re-inspected (conntrack bypass)")
	return t
}

// E9GPUResidue: device-memory handover between two users. Claim
// (§IV-F): without the epilog clear, the next user reads the previous
// user's data.
func E9GPUResidue() *metrics.Table {
	t := metrics.NewTable("E9: GPU memory residue across users",
		"config", "stranger opens unassigned GPU", "residue readable by next user")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		victim, _ := c.AddUser("victim", "pw")
		attacker, _ := c.AddUser("attacker", "pw")
		// Victim trains, writing weights to GPU memory.
		jobID, err := c.Sched.Submit(victim.Cred, sched.JobSpec{Name: "train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 2})
		if err != nil {
			panic(err)
		}
		c.Step()
		job, _ := c.Sched.Job(jobID)
		dev := c.GPUs.Devices(job.Nodes[0])[0]
		secret := []byte("victim-weights")
		_ = dev.Write(victim.Cred, 0, secret)
		// Can a third party open the device while it is assigned /
		// after release (baseline: yes, 0666)?
		_, openErr := dev.Read(attacker.Cred, 0, 1)
		c.RunAll(5)
		// Attacker's own GPU job on the same node pool.
		aj, err := c.Sched.Submit(attacker.Cred, sched.JobSpec{Name: "probe", Command: "probe", Cores: 1, MemB: 1, GPUs: 1, Duration: 5})
		if err != nil {
			panic(err)
		}
		c.Step()
		ajob, _ := c.Sched.Job(aj)
		leak := false
		for _, d := range c.GPUs.Devices(ajob.Nodes[0]) {
			if data, err := d.Read(attacker.Cred, 0, len(secret)); err == nil && string(data) == string(secret) {
				leak = true
			}
		}
		t.AddRow(cfg.Name, yesNo(openErr == nil), yesNo(leak))
	}
	t.AddNote("enhanced = /dev perms narrowed to the allocated user's private group + epilog memory clear")
	return t
}

// E10ResidualChannels: the three channels §V concedes remain open,
// probed under the ENHANCED configuration.
func E10ResidualChannels() *metrics.Table {
	t := metrics.NewTable("E10: residual channels under the enhanced config",
		"channel", "open", "detail")
	c := core.MustNew(core.Enhanced(), topo())
	rep, err := attack.LeakScan(c)
	if err != nil {
		panic(err)
	}
	for _, r := range rep.Results {
		if r.Probe.Residual {
			t.AddRow(string(r.Probe.Channel), yesNo(r.Verdict == audit.Leaked), r.Detail.String())
		}
	}
	unexpected, residual := rep.Leaks()
	t.AddNote("full scan: %d probes, %d unexpected leaks, %d residual open", len(rep.Results), unexpected, residual)
	return t
}

// E11Portal: authenticated forwarding matrix. Claim (§IV-E): the
// entire connection path is authenticated and authorized; apps run on
// any compute node.
func E11Portal() *metrics.Table {
	t := metrics.NewTable("E11: web portal/gateway access matrix",
		"config", "request", "result")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		owner, _ := c.AddUser("owner", "pw")
		other, _ := c.AddUser("other", "pw")
		// Jupyter-like apps on two different compute nodes.
		for i, node := range []string{c.Compute[0].Name, c.Compute[len(c.Compute)-1].Name} {
			h, _ := c.Host(node)
			if _, err := portal.Serve(h, owner.Cred, 8888); err != nil {
				panic(err)
			}
			if _, err := c.Portal.Register(owner.Cred, fmt.Sprintf("/app/%d", i), node, 8888); err != nil {
				panic(err)
			}
		}
		ownTok, _ := c.Portal.Login(owner.Cred, "pw")
		otherTok, _ := c.Portal.Login(other.Cred, "pw")
		cases := []struct {
			desc  string
			token string
			path  string
		}{
			{"owner -> own app (node A)", ownTok, "/app/0"},
			{"owner -> own app (node B)", ownTok, "/app/1"},
			{"other user -> owner's app", otherTok, "/app/0"},
			{"unauthenticated -> owner's app", "bogus", "/app/0"},
		}
		for _, tc := range cases {
			_, err := c.Portal.Forward(tc.token, tc.path, []byte("GET /"))
			t.AddRow(cfg.Name, tc.desc, allowDeny(err))
		}
	}
	t.AddNote("cross-user denial comes from the UBF on the forwarded hop, not just portal auth")
	return t
}

// E12Container: §IV-G — host controls pass through; no privilege.
func E12Container() *metrics.Table {
	t := metrics.NewTable("E12: containers pass through host separation",
		"config", "probe from inside container", "result")
	for _, cfg := range bothConfigs() {
		c := core.MustNew(cfg, topo())
		owner, _ := c.AddUser("owner", "pw")
		runner, _ := c.AddUser("runner", "pw")
		c.Containers.ImportImage("science")
		c.Containers.Allow(runner.UID)
		must(c.SharedFS.WriteFile(vfs.Ctx(owner.Cred), owner.HomePath+"/private.dat", []byte("d"), 0o644))
		node := c.Compute[0]
		h, _ := c.Host(node.Name)
		ct, err := c.Containers.Run(runner.Cred, node, c.NS[node.Name], h, container.RunSpec{Image: "science"})
		if err != nil {
			panic(err)
		}
		_, err = ct.ReadFile(owner.HomePath + "/private.dat")
		t.AddRow(cfg.Name, "read another user's home file", allowDeny(err))
		// Network through the container = host stack + UBF.
		oh, _ := c.Host(c.Compute[1].Name)
		if _, err := oh.Listen(owner.Cred, netsim.TCP, 9100); err != nil {
			panic(err)
		}
		_, err = ct.Dial(netsim.TCP, c.Compute[1].Name, 9100)
		t.AddRow(cfg.Name, "dial another user's service", allowDeny(err))
		// Privilege escalation request.
		_, err = c.Containers.Run(runner.Cred, node, c.NS[node.Name], h, container.RunSpec{Image: "science", RequestPrivileged: true})
		t.AddRow(cfg.Name, "request privileged container", allowDeny(err))
	}
	t.AddNote("privileged containers are refused in BOTH configs: HPC users never get root")
	return t
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// All runs every experiment in order.
func All() []*metrics.Table {
	return []*metrics.Table{
		E1ProcessVisibility(),
		E2CVEMitigation(),
		E3SchedulerPrivacy(),
		E4SchedulingPolicies(),
		E5SSHGate(),
		E6FilesystemMatrix(),
		E7UBFMatrix(),
		E8UBFOverhead(),
		E9GPUResidue(),
		E10ResidualChannels(),
		E11Portal(),
		E12Container(),
		E13PPSComparison(),
		E14CryptoMPIComparison(),
		E15MitigationTax(),
		E16AblationMatrix(),
		E17RedTeamMatrix(),
		E4FleetReplicated(),
		E16FleetDrainReplicated(),
	}
}
