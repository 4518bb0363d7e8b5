package repro

// One benchmark per experiment (E1..E17, DESIGN.md §4), timing the
// hot path each experiment exercises. The shape results themselves
// are asserted in internal/experiments; these benches measure the
// *cost* of the separation mechanisms, including the paper's central
// performance claim: the enhanced configuration adds work only on
// control-plane operations (new connections, job setup), never on
// established data paths. ns/op is report-only; TestAllocPins pins
// allocs/op exactly.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/mitig"
	"repro/internal/mpicrypt"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/ppsfw"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/ubf"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func benchTopo() core.Topology {
	return core.Topology{ComputeNodes: 8, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
}

// Each single-worker row below is split in two: a builder that does
// the row's setup and returns its operation, and the benchmark that
// times that operation. TestAllocPins (allocpins_test.go) runs the
// same builders to pin each row's allocations per operation exactly.

// benchOp times op b.N times; the setup that built op is not timed.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// e1ProcScan: a full `ps` pass (list + readable filter) by user0 over
// a login node running 50 processes for each of 8 users.
func e1ProcScan(tb testing.TB, cfg core.Config) func() {
	c := core.MustNew(cfg, benchTopo())
	var obs ids.Credential
	for i := 0; i < 8; i++ {
		u, err := c.AddUser(fmt.Sprintf("user%d", i), "pw")
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			obs = u.Cred
		}
		for p := 0; p < 50; p++ {
			c.Logins[0].Procs.Spawn(u.Cred, 1, "work", fmt.Sprintf("--n=%d", p))
		}
	}
	view := c.Proc[c.Logins[0].Name]
	return func() { _ = view.List(obs) }
}

// BenchmarkE1ProcScan: a full `ps` pass over a busy login node at each
// hidepid level.
func BenchmarkE1ProcScan(b *testing.B) {
	for _, cfg := range []core.Config{core.BaselineProfile().MustConfig(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) { benchOp(b, e1ProcScan(b, cfg)) })
	}
}

func e2CVEProbe(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	victim, _ := c.AddUser("victim", "pw")
	attacker, _ := c.AddUser("attacker", "pw")
	p := c.Logins[0].Procs.Spawn(victim.Cred, 1, "srun", "--secret=x")
	view := c.Proc[c.Logins[0].Name]
	return func() { _, _ = view.ReadCmdline(attacker.Cred, p.PID) }
}

// BenchmarkE2CVEProbe: the cost of a single cmdline read attempt —
// the disclosure path hidepid closes.
func BenchmarkE2CVEProbe(b *testing.B) { benchOp(b, e2CVEProbe(b)) }

func e3Squeue(tb testing.TB, cfg core.Config) func() {
	c := core.MustNew(cfg, benchTopo())
	var obs ids.Credential
	for u := 0; u < 4; u++ {
		user, _ := c.AddUser(fmt.Sprintf("user%d", u), "pw")
		if u == 0 {
			obs = user.Cred
		}
		for j := 0; j < 50; j++ {
			if _, err := c.Sched.Submit(user.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 1, MemB: 1, Duration: 1000}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	c.Step()
	return func() { _ = c.Sched.Squeue(obs) }
}

// BenchmarkE3Squeue: squeue under PrivateData with a 200-job queue.
func BenchmarkE3Squeue(b *testing.B) {
	for _, cfg := range []core.Config{core.BaselineProfile().MustConfig(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) { benchOp(b, e3Squeue(b, cfg)) })
	}
}

// drainCluster builds an enhanced cluster under pol with jobs spread
// over users and submitted interleaved round-robin, every oomEvery-th
// job (0 = none) using twice a node's memory. It is the untimed setup
// of the E4 drain benchmarks. The jobs need not split evenly over the
// users, so each user's batch is a one-user MixSpec built from the one
// parent generator.
func drainCluster(tb testing.TB, pol sched.SharingPolicy, topo core.Topology, users, jobs int, seed uint64, oomEvery int) *core.Cluster {
	cfg := core.Enhanced()
	cfg.Policy = pol
	c := core.MustNew(cfg, topo)
	rng := metrics.NewRNG(seed)
	batches := make([][]workload.Submission, users)
	for u := range batches {
		user, _ := c.AddUser(fmt.Sprintf("user%d", u), "pw")
		n := jobs / users
		if u < jobs%users {
			n++
		}
		var err error
		batches[u], err = workload.MixSpec{
			Users: 1, JobsPerUser: n, MinCores: 1, MaxCores: 8, MinDur: 1, MaxDur: 4, MemB: 1 << 20,
		}.Build(rng, []ids.Credential{user.Cred})
		if err != nil {
			tb.Fatal(err)
		}
	}
	mix := make([]workload.Submission, 0, jobs)
	for i := 0; len(mix) < jobs; i++ {
		for _, b := range batches {
			if i < len(b) {
				mix = append(mix, b[i])
			}
		}
	}
	for i := range mix {
		if oomEvery > 0 && i%oomEvery == oomEvery-1 {
			mix[i].Spec.ActualMemB = 2 << 30
		}
	}
	if _, err := workload.SubmitAll(c.Sched, mix); err != nil {
		tb.Fatal(err)
	}
	return c
}

// e4Cluster is E4's campaign: 6 users × 50 jobs on the 8-node topology.
func e4Cluster(tb testing.TB, pol sched.SharingPolicy) *core.Cluster {
	return drainCluster(tb, pol, benchTopo(), 6, 300, 7, 0)
}

// e4XLCluster is E4 scaled up 8×: 64 nodes, 36 users, 2000 jobs, and
// every 60th job an OOM.
func e4XLCluster(tb testing.TB, pol sched.SharingPolicy) *core.Cluster {
	xlTopo := core.Topology{ComputeNodes: 64, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
	return drainCluster(tb, pol, xlTopo, 36, 2000, 11, 60)
}

// benchDrain times draining a cluster build returns, b.N times; each
// build is untimed.
func benchDrain(b *testing.B, build func(testing.TB, sched.SharingPolicy) *core.Cluster) {
	for _, pol := range []sched.SharingPolicy{sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := build(b, pol)
				b.StartTimer()
				c.RunAll(100000)
			}
		})
	}
}

// BenchmarkE4Policies: drain an identical 300-job multi-user campaign
// under each node-sharing policy. This measures simulation CPU time;
// the policy comparison the paper cares about (makespan in logical
// ticks, utilization, blast radius) is the E4 table in
// internal/experiments.
func BenchmarkE4Policies(b *testing.B) { benchDrain(b, e4Cluster) }

// BenchmarkE4XLCampaign: the E4 drain scaled up 8× — 64 nodes, 36
// users, 2000 jobs — to prove the event-driven placement engine keeps
// per-job cost flat as the campaign grows (no superlinear tick ×
// queue × node blowup). Compare ns/op ÷ 2000 here against
// BenchmarkE4Policies ns/op ÷ 300.
func BenchmarkE4XLCampaign(b *testing.B) { benchDrain(b, e4XLCluster) }

func e5SSHGate(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	if _, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 2, MemB: 1, Duration: 1 << 30}); err != nil {
		tb.Fatal(err)
	}
	c.Step()
	node := c.Compute[0]
	// The login shell is the only process the op adds; rewinding the
	// table to a mark taken here removes it again.
	node.Procs.MarkPristine()
	return func() {
		if _, err := node.Login(alice.Cred); err != nil {
			tb.Fatal(err)
		}
		node.Procs.Reset()
	}
}

// BenchmarkE5SSHGate: pam_slurm login decision on a compute node.
func BenchmarkE5SSHGate(b *testing.B) { benchOp(b, e5SSHGate(b)) }

func e6FSMatrix(tb testing.TB, cfg core.Config) func() {
	c := core.MustNew(cfg, benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	stranger, _ := c.AddUser("stranger", "pw")
	octx, sctx := vfs.Ctx(owner.Cred), vfs.Ctx(stranger.Cred)
	i := 0
	return func() {
		path := fmt.Sprintf("/scratch/shared/f%d", i)
		i++
		if err := c.SharedFS.WriteFile(octx, path, []byte("d"), 0o600); err != nil {
			tb.Fatal(err)
		}
		if err := c.SharedFS.Chmod(octx, path, 0o644); err != nil {
			tb.Fatal(err)
		}
		_, _ = c.SharedFS.ReadFile(sctx, path)
	}
}

// BenchmarkE6FSMatrix: create + chmod + cross-user read attempt under
// smask, the per-file cost of the filesystem measures.
func BenchmarkE6FSMatrix(b *testing.B) {
	for _, cfg := range []core.Config{core.BaselineProfile().MustConfig(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) { benchOp(b, e6FSMatrix(b, cfg)) })
	}
}

// e7UBFVerdict dials alice's listener as alice (accept) or as bob
// (deny).
func e7UBFVerdict(tb testing.TB, accept bool) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	bob, _ := c.AddUser("bob", "pw")
	h0, _ := c.Host(c.Compute[0].Name)
	h1, _ := c.Host(c.Compute[1].Name)
	if _, err := h0.Listen(alice.Cred, netsim.TCP, 9000); err != nil {
		tb.Fatal(err)
	}
	if accept {
		return func() {
			conn, err := h1.Dial(alice.Cred, netsim.TCP, c.Compute[0].Name, 9000)
			if err != nil {
				tb.Fatal(err)
			}
			conn.Close()
		}
	}
	return func() {
		if _, err := h1.Dial(bob.Cred, netsim.TCP, c.Compute[0].Name, 9000); err == nil {
			tb.Fatal("cross-user dial succeeded")
		}
	}
}

// BenchmarkE7UBFMatrix: one NEW-connection verdict, allowed vs denied.
func BenchmarkE7UBFMatrix(b *testing.B) {
	b.Run("same-user-accept", func(b *testing.B) { benchOp(b, e7UBFVerdict(b, true)) })
	b.Run("cross-user-deny", func(b *testing.B) { benchOp(b, e7UBFVerdict(b, false)) })
}

// e8Conn builds a cluster with the firewall on or off (and its verdict
// cache on or off) and alice listening on compute node 0; it returns
// the cluster, alice and node 1's host.
func e8Conn(tb testing.TB, enabled, cache bool) (*core.Cluster, ids.Credential, *netsim.Host) {
	cfg := core.Enhanced()
	cfg.UBFEnabled = enabled
	cfg.UBFCacheVerdicts = cache
	c := core.MustNew(cfg, benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	h0, _ := c.Host(c.Compute[0].Name)
	h1, _ := c.Host(c.Compute[1].Name)
	if _, err := h0.Listen(alice.Cred, netsim.TCP, 9000); err != nil {
		tb.Fatal(err)
	}
	return c, alice.Cred, h1
}

// e8Setup is one connection setup and close.
func e8Setup(tb testing.TB, enabled, cache bool) func() {
	c, alice, h1 := e8Conn(tb, enabled, cache)
	return func() {
		conn, err := h1.Dial(alice, netsim.TCP, c.Compute[0].Name, 9000)
		if err != nil {
			tb.Fatal(err)
		}
		conn.Close()
	}
}

// e8Send is one 256-byte send and receive on an established
// connection, with the enhanced profile's verdict cache.
func e8Send(tb testing.TB, enabled bool) func() {
	c, alice, h1 := e8Conn(tb, enabled, true)
	conn, err := h1.Dial(alice, netsim.TCP, c.Compute[0].Name, 9000)
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, 256)
	return func() {
		if err := conn.Send(payload); err != nil {
			tb.Fatal(err)
		}
		if _, ok := conn.Recv(); !ok {
			tb.Fatal("lost payload")
		}
	}
}

// BenchmarkE8UBFOverhead: connection setup with the firewall off, on
// without cache, and on with cache — plus the established-path data
// rate that the paper's conntrack bypass keeps identical.
func BenchmarkE8UBFOverhead(b *testing.B) {
	b.Run("setup-no-ubf", func(b *testing.B) { benchOp(b, e8Setup(b, false, false)) })
	b.Run("setup-ubf-nocache", func(b *testing.B) { benchOp(b, e8Setup(b, true, false)) })
	b.Run("setup-ubf-cache", func(b *testing.B) { benchOp(b, e8Setup(b, true, true)) })
	for _, enabled := range []bool{false, true} {
		name := "established-send-no-ubf"
		if enabled {
			name = "established-send-ubf"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(256)
			benchOp(b, e8Send(b, enabled))
		})
	}
}

func e9GPUResidue(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	return func() {
		j, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 1})
		if err != nil {
			tb.Fatal(err)
		}
		c.Step() // start (prolog: assign)
		c.Step() // finish (epilog: clear + revoke)
		if jj, _ := c.Sched.Job(j); jj.State != sched.Completed {
			c.RunAll(4)
		}
	}
}

// BenchmarkE9GPUResidue: the epilog clear itself — the cost the paper
// pays per GPU job handover.
func BenchmarkE9GPUResidue(b *testing.B) { benchOp(b, e9GPUResidue(b)) }

func e10Residual(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	bob, _ := c.AddUser("bob", "pw")
	h, _ := c.Host(c.Logins[0].Name)
	sock, err := h.ListenAbstract(alice.Cred, "coord")
	if err != nil {
		tb.Fatal(err)
	}
	payload := []byte("x")
	return func() {
		if err := h.DialAbstract(bob.Cred, "coord", payload); err != nil {
			tb.Fatal(err)
		}
		sock.Recv()
	}
}

// BenchmarkE10Residual: the residual abstract-socket path (no checks,
// so this is the floor for local IPC).
func BenchmarkE10Residual(b *testing.B) { benchOp(b, e10Residual(b)) }

func e11Portal(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	h, _ := c.Host(c.Compute[0].Name)
	app, err := portal.Serve(h, owner.Cred, 8888)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Portal.Register(owner.Cred, "/app", c.Compute[0].Name, 8888); err != nil {
		tb.Fatal(err)
	}
	tok, err := c.Portal.Login(owner.Cred, "pw")
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		if _, err := c.Portal.Forward(tok, "/app", []byte("GET /")); err != nil {
			tb.Fatal(err)
		}
		if i%1024 == 0 {
			app.Drain()
		}
		i++
	}
}

// BenchmarkE11Portal: one authenticated forward through the portal,
// including the UBF-checked upstream dial.
func BenchmarkE11Portal(b *testing.B) { benchOp(b, e11Portal(b)) }

// e12Read reads a file in the user's home from inside a container, or
// from the bare host filesystem.
func e12Read(tb testing.TB, inside bool) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	user, _ := c.AddUser("user", "pw")
	c.Containers.ImportImage("img")
	c.Containers.Allow(user.UID)
	node := c.Compute[0]
	h, _ := c.Host(node.Name)
	ct, err := c.Containers.Run(user.Cred, node, c.NS[node.Name], h, container.RunSpec{Image: "img"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ct.NS.WriteFile(vfs.Ctx(user.Cred), user.HomePath+"/data", []byte("payload"), 0o600); err != nil {
		tb.Fatal(err)
	}
	read := func() ([]byte, error) { return ct.ReadFile(user.HomePath + "/data") }
	if !inside {
		ctx := vfs.Ctx(user.Cred)
		read = func() ([]byte, error) { return c.SharedFS.ReadFile(ctx, user.HomePath+"/data") }
	}
	return func() {
		if _, err := read(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkE12Container: a host-filesystem read from inside a
// container (passthrough cost over the bare FS read).
func BenchmarkE12Container(b *testing.B) {
	b.Run("inside-container", func(b *testing.B) { benchOp(b, e12Read(b, true)) })
	b.Run("bare-host", func(b *testing.B) { benchOp(b, e12Read(b, false)) })
}

// e13Dial is one connection to a host guarded by the PPS port-range
// rule or by the UBF.
func e13Dial(tb testing.TB, useUBF bool) func() {
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	if useUBF {
		ubf.New(ubf.Config{CacheVerdicts: true}).InstallOn(h2)
	} else {
		fw := ppsfw.New()
		fw.Approve("user-ports", netsim.TCP, 1024, 65535)
		fw.InstallOn(h2)
	}
	if _, err := h2.Listen(alice, netsim.TCP, 47113); err != nil {
		tb.Fatal(err)
	}
	return func() {
		c, err := h1.Dial(alice, netsim.TCP, "b", 47113)
		if err != nil {
			tb.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkE13PPSComparison: decision cost of the PPS comparator vs
// the UBF on the same flow.
func BenchmarkE13PPSComparison(b *testing.B) {
	b.Run("pps-range-rule", func(b *testing.B) { benchOp(b, e13Dial(b, false)) })
	b.Run("ubf", func(b *testing.B) { benchOp(b, e13Dial(b, true)) })
}

const e14Payload = 4096

// e14Datapath is one 4 KiB send and receive: plain through a
// UBF-guarded host's conntrack, or sealed and opened with AES-GCM.
func e14Datapath(tb testing.TB, encrypted bool) func() {
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	payload := make([]byte, e14Payload)
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	if !encrypted {
		ubf.New(ubf.Config{}).InstallOn(h2)
	}
	l, err := h2.Listen(alice, netsim.TCP, 9000)
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := h1.Dial(alice, netsim.TCP, "b", 9000)
	if err != nil {
		tb.Fatal(err)
	}
	acc, _ := l.Accept()
	if !encrypted {
		return func() {
			if err := conn.Send(payload); err != nil {
				tb.Fatal(err)
			}
			if _, ok := acc.Recv(); !ok {
				tb.Fatal("lost payload")
			}
		}
	}
	sc, err := mpicrypt.Secure(conn, []byte("job-token"))
	if err != nil {
		tb.Fatal(err)
	}
	opener, err := mpicrypt.NewSealer([]byte("job-token"))
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := sc.Send(payload); err != nil {
			tb.Fatal(err)
		}
		box, ok := acc.Recv()
		if !ok {
			tb.Fatal("lost payload")
		}
		if _, err := opener.Open(box); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkE14CryptoMPI: per-message data-path cost of Option 1
// (AES-GCM seal+open) vs Option 2 (plain send through conntrack).
func BenchmarkE14CryptoMPI(b *testing.B) {
	for _, v := range []struct {
		name      string
		encrypted bool
	}{{"plain-ubf-datapath", false}, {"encrypted-mpi-datapath", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(e14Payload)
			benchOp(b, e14Datapath(b, v.encrypted))
		})
	}
}

func e15MitigationTax(testing.TB) func() {
	on := mitig.DefaultMitigations()
	profiles := mitig.Profiles()
	return func() {
		for _, w := range profiles {
			_ = mitig.Slowdown(w, on)
		}
	}
}

// BenchmarkE15MitigationTax: cost-model evaluation (cheap; here for
// completeness so every experiment has a bench target).
func BenchmarkE15MitigationTax(b *testing.B) { benchOp(b, e15MitigationTax(b)) }

// BenchmarkFleetCampaign: the E4 policy-grid campaign (3 scenarios ×
// 8 replications = 24 independent cluster drains) executed by the
// fleet engine at several worker counts. Results are bit-identical
// across the sub-benchmarks (the engine's determinism contract);
// only wall-clock moves, so on a multi-core host the 4w/8w rows show
// the shard speedup while on a single-core host they stay flat.
func BenchmarkFleetCampaign(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dw", workers), func(b *testing.B) {
			benchOp(b, fleetCampaign(b, fleet.PresetE4PolicyGrid, workers))
		})
	}
}

// fleetCampaign runs a preset campaign at seed 42 on workers workers.
func fleetCampaign(tb testing.TB, preset string, workers int) func() {
	camp := fleet.MustPreset(preset)
	return func() {
		if _, err := fleet.Run(camp, fleet.Options{Workers: workers, Seed: 42}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTrialLifecycle: the cost of one campaign trial under the
// two lifecycle strategies — fresh cluster construction per trial
// (pre-PR5 behaviour, Options.DisablePooling) vs pooled reuse via
// core.Cluster.Reset. The campaign (fleet.LifecycleCampaign) is
// construction-heavy and drain-light on purpose: the delta between
// the two rows IS the lifecycle overhead pooling removes, while the
// simulation work inside each trial is identical. The loop runs b.N
// trials as campaigns of 8 (the last one shorter), so ns/op and
// allocs/op are per trial for any b.N. fleet.TestPooledTrialAllocsReduction
// pins each mode's allocations per trial exactly.
func BenchmarkTrialLifecycle(b *testing.B) {
	b.ReportAllocs()
	const reps = 8
	for _, mode := range []struct {
		name    string
		pooling bool
	}{{"fresh", false}, {"pooled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			full, rest := fleet.LifecycleCampaign(reps), fleet.LifecycleCampaign(b.N%reps)
			b.ResetTimer()
			for done := 0; done < b.N; done += reps {
				camp := full
				if b.N-done < reps {
					camp = rest
				}
				if _, err := fleet.Run(camp, fleet.Options{Workers: 1, Seed: 42, DisablePooling: !mode.pooling}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deniedProbes are the refusals the separation mechanisms issue on the
// probe catalogue's paths, one per mechanism: each builder sets up an
// enhanced cluster and returns one attempt that mechanism denies. A
// denial costs its typed error and nothing that formats it.
var deniedProbes = []struct {
	name  string
	build func(testing.TB) func()
}{
	{"vfs-search", deniedVFSSearch},
	{"ubf-dial", func(tb testing.TB) func() { return e7UBFVerdict(tb, false) }},
	{"gpu-read", deniedGPURead},
	{"pam-slurm", deniedPAMSlurm},
	{"portal-forward", deniedPortalForward},
	{"container-admission", deniedContainerRun},
}

// denied fails tb unless err wraps sentinel.
func denied(tb testing.TB, err, sentinel error) {
	if !errors.Is(err, sentinel) {
		tb.Fatalf("got %v, want a denial wrapping %v", err, sentinel)
	}
}

// deniedVFSSearch: a stranger reads a file under the owner's 0700
// home, refused at the search of the home directory.
func deniedVFSSearch(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	stranger, _ := c.AddUser("stranger", "pw")
	sctx := vfs.Ctx(stranger.Cred)
	path := owner.HomePath + "/results.csv"
	return func() {
		_, err := c.SharedFS.ReadFile(sctx, path)
		denied(tb, err, vfs.ErrPermission)
	}
}

// deniedGPURead: a stranger reads the GPU assigned to another user's
// running job.
func deniedGPURead(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	stranger, _ := c.AddUser("stranger", "pw")
	j, err := c.Sched.Submit(owner.Cred, sched.JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	c.Step()
	_, node, err := c.Sched.Placement(j)
	if err != nil || node == "" {
		tb.Fatalf("gpu job not placed: %v", err)
	}
	dev := c.GPUs.Devices(node)[0]
	return func() {
		_, err := dev.Read(stranger.Cred, 0, 1)
		denied(tb, err, gpu.ErrNotAssigned)
	}
}

// deniedPAMSlurm: an ssh login to a compute node where the user has no
// running job.
func deniedPAMSlurm(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	stranger, _ := c.AddUser("stranger", "pw")
	node := c.Compute[0]
	return func() {
		_, err := node.Login(stranger.Cred)
		denied(tb, err, simos.ErrAccessDenied)
	}
}

// deniedPortalForward: a stranger's authenticated forward into another
// user's web app, dropped by the UBF on the hop.
func deniedPortalForward(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	stranger, _ := c.AddUser("stranger", "pw")
	h, _ := c.Host(c.Compute[0].Name)
	if _, err := portal.Serve(h, owner.Cred, 8888); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Portal.Register(owner.Cred, "/app", c.Compute[0].Name, 8888); err != nil {
		tb.Fatal(err)
	}
	tok, err := c.Portal.Login(stranger.Cred, "pw")
	if err != nil {
		tb.Fatal(err)
	}
	payload := []byte("GET /")
	return func() {
		_, err := c.Portal.Forward(tok, "/app", payload)
		denied(tb, err, portal.ErrForbidden)
	}
}

// deniedContainerRun: a user never approved for the container runtime
// launches an image.
func deniedContainerRun(tb testing.TB) func() {
	c := core.MustNew(core.Enhanced(), benchTopo())
	stranger, _ := c.AddUser("stranger", "pw")
	c.Containers.ImportImage("img")
	node := c.Compute[0]
	h, _ := c.Host(node.Name)
	ns := c.NS[node.Name]
	return func() {
		_, err := c.Containers.Run(stranger.Cred, node, ns, h, container.RunSpec{Image: "img"})
		denied(tb, err, container.ErrPrivileged)
	}
}

// BenchmarkDeniedProbe: one refused attempt per separation mechanism.
func BenchmarkDeniedProbe(b *testing.B) {
	for _, p := range deniedProbes {
		b.Run(p.name, func(b *testing.B) { benchOp(b, p.build(b)) })
	}
}

// BenchmarkE16Ablation: the full enhanced-minus-one sweep — ten
// cluster builds with the complete separation probe battery plus ten
// E4-style utilization drains. This is the repo's heaviest composite
// operation; it tracks the cost of "rebuild the world per ablation",
// which is what every table-driven configuration study pays.
func BenchmarkE16Ablation(b *testing.B) { benchOp(b, e16Ablation(b)) }

// e16Ablation runs the whole enhanced-minus-one sweep.
func e16Ablation(tb testing.TB) func() {
	return func() {
		if _, err := experiments.AblationSweep(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkE17Campaign: the full red-team matrix — 19 attacked
// scenarios (5 models × 2 profiles + 9 kill-chain ablations), each a
// campaign running concurrently with a legitimate mix, replicated 3×
// by the fleet engine. The cost that matters is the attacked trial:
// session provisioning, the victim's sentinel job, twelve probe
// steps and their pacing gaps all ride the shared cluster clock, so
// this row tracks the adversary engine's overhead on top of the
// plain fleet drain (BenchmarkFleetCampaign).
func BenchmarkE17Campaign(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dw", workers), func(b *testing.B) {
			benchOp(b, fleetCampaign(b, fleet.PresetE17RedTeam, workers))
		})
	}
}

// xxlHeapCeiling is the hard live-heap ceiling for the full-size XXL
// trial (10k nodes, 1M registered users): the post-trial heap after a
// forced GC must stay below it. The measured figure is ~99.6 MB, i.e.
// ~95 MiB (EXPERIMENTS.md records the methodology). The ceiling leaves
// ~33 MiB of headroom: enough that noise never flakes the gate, too
// little for a string-keyed map of every user (the by-name map the
// registry once carried measured 147 MB) or any per-entity eager cost
// (an eager home/UPG per user is hundreds of MiB). Smaller growth,
// such as one extra pointer per user (~8 MiB), passes it.
const xxlHeapCeiling = 128 << 20

// xxlSize reads the XXL topology knobs: XXL_NODES / XXL_USERS shrink
// the trial (CI runs a 1k-node, 100k-user variant under -race, where
// the full size would time out). Defaults are the paper-scale target.
func xxlSize() (nodes, users int) {
	nodes, users = 10000, 1000000
	if v := os.Getenv("XXL_NODES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			nodes = n
		}
	}
	if v := os.Getenv("XXL_USERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			users = n
		}
	}
	return nodes, users
}

// BenchmarkXXLTrial is the tentpole gate for the lazy substrate: one
// trial on a 10k-node cluster with 1M registered users of whom only a
// sparse active set (64) ever logs in, submits, or touches a home
// directory. Per iteration it resets the cluster, bulk-registers the
// full user population (compact descriptors only — no homes, UPGs or
// credentials materialize), provisions the active set end-to-end, and
// drains a small job mix. After the timed loop it forces a GC and
// reports live heap as "heap-bytes"; at full size the heap must stay
// under xxlHeapCeiling, the one heap gate.
func BenchmarkXXLTrial(b *testing.B) {
	b.ReportAllocs()
	nodes, users := xxlSize()
	const active = 64
	topo := core.Topology{ComputeNodes: nodes, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
	c := core.MustNew(core.Enhanced(), topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		// Bulk registration: the 1M-account directory a production
		// cluster carries, none of it materialized until touched.
		for u := 0; u < users; u++ {
			if _, err := c.Registry.Register(fleet.UserName(u)); err != nil {
				b.Fatal(err)
			}
		}
		// Sparse active set: full provisioning (home, credential,
		// portal enrolment) and a drained job mix.
		for a := 0; a < active; a++ {
			acct, err := c.AddUser(fmt.Sprintf("xxl-active%d", a), "pw")
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				spec := sched.JobSpec{Name: "xxl", Command: "work", Cores: 1, MemB: 1 << 20, Duration: 2}
				if _, err := c.Sched.Submit(acct.Cred, spec); err != nil {
					b.Fatal(err)
				}
			}
		}
		if ticks := c.RunAll(100000); ticks >= 100000 {
			b.Fatalf("xxl trial did not drain in %d ticks", ticks)
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// KeepAlive pins the cluster through the GC above: the metric is
	// the live heap of a post-trial XXL cluster, not of a collected one.
	runtime.KeepAlive(c)
	b.ReportMetric(float64(ms.HeapAlloc), "heap-bytes")
	if nodes == 10000 && users == 1000000 && ms.HeapAlloc > xxlHeapCeiling {
		b.Fatalf("XXL live heap %d exceeds ceiling %d", ms.HeapAlloc, xxlHeapCeiling)
	}
}
