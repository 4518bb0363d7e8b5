package repro

// One benchmark per experiment (E1..E16, DESIGN.md §4), timing the
// hot path each experiment exercises. The shape results themselves
// are asserted in internal/experiments; these benches measure the
// *cost* of the separation mechanisms, including the paper's central
// performance claim: the enhanced configuration adds work only on
// control-plane operations (new connections, job setup), never on
// established data paths.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/mitig"
	"repro/internal/mpicrypt"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/ppsfw"
	"repro/internal/sched"
	"repro/internal/ubf"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func benchTopo() core.Topology {
	return core.Topology{ComputeNodes: 8, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
}

// BenchmarkE1ProcScan: a full `ps` pass (list + readable filter) over
// a busy login node at each hidepid level.
func BenchmarkE1ProcScan(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []core.Config{core.Baseline(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			c := core.MustNew(cfg, benchTopo())
			var obs ids.Credential
			for i := 0; i < 8; i++ {
				u, err := c.AddUser(fmt.Sprintf("user%d", i), "pw")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					obs = u.Cred
				}
				for p := 0; p < 50; p++ {
					c.Logins[0].Procs.Spawn(u.Cred, 1, "work", fmt.Sprintf("--n=%d", p))
				}
			}
			view := c.Proc[c.Logins[0].Name]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = view.List(obs)
			}
		})
	}
}

// BenchmarkE2CVEProbe: the cost of a single cmdline read attempt —
// the disclosure path hidepid closes.
func BenchmarkE2CVEProbe(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	victim, _ := c.AddUser("victim", "pw")
	attacker, _ := c.AddUser("attacker", "pw")
	p := c.Logins[0].Procs.Spawn(victim.Cred, 1, "srun", "--secret=x")
	view := c.Proc[c.Logins[0].Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = view.ReadCmdline(attacker.Cred, p.PID)
	}
}

// BenchmarkE3Squeue: squeue under PrivateData with a 200-job queue.
func BenchmarkE3Squeue(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []core.Config{core.Baseline(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			c := core.MustNew(cfg, benchTopo())
			var obs ids.Credential
			for u := 0; u < 4; u++ {
				user, _ := c.AddUser(fmt.Sprintf("user%d", u), "pw")
				if u == 0 {
					obs = user.Cred
				}
				for j := 0; j < 50; j++ {
					if _, err := c.Sched.Submit(user.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 1, MemB: 1, Duration: 1000}); err != nil {
						b.Fatal(err)
					}
				}
			}
			c.Step()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.Sched.Squeue(obs)
			}
		})
	}
}

// BenchmarkE4Policies: drain an identical 300-job multi-user campaign
// under each node-sharing policy. This measures simulation CPU time;
// the policy comparison the paper cares about (makespan in logical
// ticks, utilization, blast radius) is the E4 table in
// internal/experiments.
func BenchmarkE4Policies(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range []sched.SharingPolicy{sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.Enhanced()
				cfg.Policy = pol
				c := core.MustNew(cfg, benchTopo())
				rng := metrics.NewRNG(7)
				var batches [][]workload.Submission
				for u := 0; u < 6; u++ {
					user, _ := c.AddUser(fmt.Sprintf("user%d", u), "pw")
					batches = append(batches, workload.Sweep(rng.Split(), workload.SweepConfig{
						User: user.Cred, Jobs: 50, MinCores: 1, MaxCores: 8, MinDur: 1, MaxDur: 4, MemB: 1 << 20,
					}))
				}
				if _, err := workload.SubmitAll(c.Sched, workload.Mix(batches...)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.RunAll(100000)
			}
		})
	}
}

// BenchmarkE4XLCampaign: the E4 drain scaled up 8× — 64 nodes, 36
// users, 2000 jobs — to prove the event-driven placement engine keeps
// per-job cost flat as the campaign grows (no superlinear tick ×
// queue × node blowup). Compare ns/op ÷ 2000 here against
// BenchmarkE4Policies ns/op ÷ 300.
func BenchmarkE4XLCampaign(b *testing.B) {
	b.ReportAllocs()
	const users, jobs = 36, 2000
	xlTopo := core.Topology{ComputeNodes: 64, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
	for _, pol := range []sched.SharingPolicy{sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.Enhanced()
				cfg.Policy = pol
				c := core.MustNew(cfg, xlTopo)
				rng := metrics.NewRNG(11)
				var batches [][]workload.Submission
				for u := 0; u < users; u++ {
					user, _ := c.AddUser(fmt.Sprintf("user%d", u), "pw")
					n := jobs / users
					if u < jobs%users {
						n++
					}
					batches = append(batches, workload.Sweep(rng.Split(), workload.SweepConfig{
						User: user.Cred, Jobs: n, MinCores: 1, MaxCores: 8, MinDur: 1, MaxDur: 4, MemB: 1 << 20,
					}))
				}
				mix := workload.WithOOM(workload.Mix(batches...), 60, 2<<30)
				if _, err := workload.SubmitAll(c.Sched, mix); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.RunAll(100000)
			}
		})
	}
}

// BenchmarkE5SSHGate: pam_slurm login decision on a compute node.
func BenchmarkE5SSHGate(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	if _, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "j", Command: "x", Cores: 2, MemB: 1, Duration: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	c.Step()
	node := c.Compute[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := node.Login(alice.Cred)
		if err != nil {
			b.Fatal(err)
		}
		_ = node.Procs.Exit(sh.PID)
	}
}

// BenchmarkE6FSMatrix: create + chmod + cross-user read attempt under
// smask, the per-file cost of the filesystem measures.
func BenchmarkE6FSMatrix(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []core.Config{core.Baseline(), core.Enhanced()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			c := core.MustNew(cfg, benchTopo())
			owner, _ := c.AddUser("owner", "pw")
			stranger, _ := c.AddUser("stranger", "pw")
			octx, sctx := vfs.Ctx(owner.Cred), vfs.Ctx(stranger.Cred)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("/scratch/shared/f%d", i)
				if err := c.SharedFS.WriteFile(octx, path, []byte("d"), 0o600); err != nil {
					b.Fatal(err)
				}
				if err := c.SharedFS.Chmod(octx, path, 0o644); err != nil {
					b.Fatal(err)
				}
				_, _ = c.SharedFS.ReadFile(sctx, path)
			}
		})
	}
}

// BenchmarkE7UBFMatrix: one NEW-connection verdict, allowed vs denied.
func BenchmarkE7UBFMatrix(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	bob, _ := c.AddUser("bob", "pw")
	h0, _ := c.Host(c.Compute[0].Name)
	h1, _ := c.Host(c.Compute[1].Name)
	if _, err := h0.Listen(alice.Cred, netsim.TCP, 9000); err != nil {
		b.Fatal(err)
	}
	b.Run("same-user-accept", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conn, err := h1.Dial(alice.Cred, netsim.TCP, c.Compute[0].Name, 9000)
			if err != nil {
				b.Fatal(err)
			}
			conn.Close()
		}
	})
	b.Run("cross-user-deny", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h1.Dial(bob.Cred, netsim.TCP, c.Compute[0].Name, 9000); err == nil {
				b.Fatal("cross-user dial succeeded")
			}
		}
	})
}

// BenchmarkE8UBFOverhead: connection setup with the firewall off, on
// without cache, and on with cache — plus the established-path data
// rate that the paper's conntrack bypass keeps identical.
func BenchmarkE8UBFOverhead(b *testing.B) {
	b.ReportAllocs()
	variants := []struct {
		name    string
		enabled bool
		cache   bool
	}{
		{"setup-no-ubf", false, false},
		{"setup-ubf-nocache", true, false},
		{"setup-ubf-cache", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Enhanced()
			cfg.UBFEnabled = v.enabled
			cfg.UBFCacheVerdicts = v.cache
			c := core.MustNew(cfg, benchTopo())
			alice, _ := c.AddUser("alice", "pw")
			h0, _ := c.Host(c.Compute[0].Name)
			h1, _ := c.Host(c.Compute[1].Name)
			if _, err := h0.Listen(alice.Cred, netsim.TCP, 9000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := h1.Dial(alice.Cred, netsim.TCP, c.Compute[0].Name, 9000)
				if err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
		})
	}
	for _, enabled := range []bool{false, true} {
		name := "established-send-no-ubf"
		if enabled {
			name = "established-send-ubf"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Enhanced()
			cfg.UBFEnabled = enabled
			c := core.MustNew(cfg, benchTopo())
			alice, _ := c.AddUser("alice", "pw")
			h0, _ := c.Host(c.Compute[0].Name)
			h1, _ := c.Host(c.Compute[1].Name)
			if _, err := h0.Listen(alice.Cred, netsim.TCP, 9000); err != nil {
				b.Fatal(err)
			}
			conn, err := h1.Dial(alice.Cred, netsim.TCP, c.Compute[0].Name, 9000)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 256)
			b.SetBytes(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(payload); err != nil {
					b.Fatal(err)
				}
				if _, ok := drainOne(conn); !ok {
					b.Fatal("lost payload")
				}
			}
		})
	}
}

func drainOne(c *netsim.Conn) ([]byte, bool) { return c.Recv() }

// BenchmarkE9GPUResidue: the epilog clear itself — the cost the paper
// pays per GPU job handover.
func BenchmarkE9GPUResidue(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := c.Sched.Submit(alice.Cred, sched.JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Step() // start (prolog: assign)
		c.Step() // finish (epilog: clear + revoke)
		if jj, _ := c.Sched.Job(j.ID); jj.State != sched.Completed {
			c.RunAll(4)
		}
	}
}

// BenchmarkE10Residual: the residual abstract-socket path (no checks,
// so this is the floor for local IPC).
func BenchmarkE10Residual(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	alice, _ := c.AddUser("alice", "pw")
	bob, _ := c.AddUser("bob", "pw")
	h, _ := c.Host(c.Logins[0].Name)
	sock, err := h.ListenAbstract(alice.Cred, "coord")
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.DialAbstract(bob.Cred, "coord", payload); err != nil {
			b.Fatal(err)
		}
		sock.Recv()
	}
}

// BenchmarkE11Portal: one authenticated forward through the portal,
// including the UBF-checked upstream dial.
func BenchmarkE11Portal(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	owner, _ := c.AddUser("owner", "pw")
	h, _ := c.Host(c.Compute[0].Name)
	app, err := portal.Serve(h, owner.Cred, 8888)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Portal.Register(owner.Cred, "/app", c.Compute[0].Name, 8888); err != nil {
		b.Fatal(err)
	}
	tok, err := c.Portal.Login(owner.Cred, "pw")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Portal.Forward(tok, "/app", []byte("GET /")); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			app.Drain()
		}
	}
}

// BenchmarkE12Container: a host-filesystem read from inside a
// container (passthrough cost over the bare FS read).
func BenchmarkE12Container(b *testing.B) {
	b.ReportAllocs()
	c := core.MustNew(core.Enhanced(), benchTopo())
	user, _ := c.AddUser("user", "pw")
	c.Containers.ImportImage("img", nil)
	c.Containers.Allow(user.UID)
	node := c.Compute[0]
	h, _ := c.Host(node.Name)
	ct, err := c.Containers.Run(user.Cred, node, c.NS[node.Name], h, container.RunSpec{Image: "img"})
	if err != nil {
		b.Fatal(err)
	}
	if err := ct.WriteFile(user.HomePath+"/data", []byte("payload"), 0o600); err != nil {
		b.Fatal(err)
	}
	b.Run("inside-container", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ct.ReadFile(user.HomePath + "/data"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bare-host", func(b *testing.B) {
		b.ReportAllocs()
		ctx := vfs.Ctx(user.Cred)
		for i := 0; i < b.N; i++ {
			if _, err := c.SharedFS.ReadFile(ctx, user.HomePath+"/data"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13PPSComparison: decision cost of the PPS comparator vs
// the UBF on the same flow.
func BenchmarkE13PPSComparison(b *testing.B) {
	b.ReportAllocs()
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	mk := func(install func(h *netsim.Host)) (*netsim.Host, string) {
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		install(h2)
		if _, err := h2.Listen(alice, netsim.TCP, 47113); err != nil {
			b.Fatal(err)
		}
		return h1, "b"
	}
	b.Run("pps-range-rule", func(b *testing.B) {
		b.ReportAllocs()
		h1, dst := mk(func(h *netsim.Host) {
			fw := ppsfw.New()
			fw.Approve("user-ports", netsim.TCP, 1024, 65535)
			fw.InstallOn(h)
		})
		for i := 0; i < b.N; i++ {
			c, err := h1.Dial(alice, netsim.TCP, dst, 47113)
			if err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
	b.Run("ubf", func(b *testing.B) {
		b.ReportAllocs()
		h1, dst := mk(func(h *netsim.Host) {
			d := ubf.New(ubf.Config{AllowGroupPeers: true, CacheVerdicts: true})
			d.InstallOn(h)
		})
		for i := 0; i < b.N; i++ {
			c, err := h1.Dial(alice, netsim.TCP, dst, 47113)
			if err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
}

// BenchmarkE14CryptoMPI: per-message data-path cost of Option 1
// (AES-GCM seal+open) vs Option 2 (plain send through conntrack).
func BenchmarkE14CryptoMPI(b *testing.B) {
	b.ReportAllocs()
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	payload := make([]byte, 4096)
	b.Run("plain-ubf-datapath", func(b *testing.B) {
		b.ReportAllocs()
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		d := ubf.New(ubf.Config{AllowGroupPeers: true})
		d.InstallOn(h2)
		l, err := h2.Listen(alice, netsim.TCP, 9000)
		if err != nil {
			b.Fatal(err)
		}
		conn, err := h1.Dial(alice, netsim.TCP, "b", 9000)
		if err != nil {
			b.Fatal(err)
		}
		acc, _ := l.Accept()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := conn.Send(payload); err != nil {
				b.Fatal(err)
			}
			if _, ok := acc.Recv(); !ok {
				b.Fatal("lost payload")
			}
		}
	})
	b.Run("encrypted-mpi-datapath", func(b *testing.B) {
		b.ReportAllocs()
		n := netsim.NewNetwork()
		h1, h2 := n.AddHost("a"), n.AddHost("b")
		l, err := h2.Listen(alice, netsim.TCP, 9000)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := h1.Dial(alice, netsim.TCP, "b", 9000)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := mpicrypt.Secure(raw, []byte("job-token"))
		if err != nil {
			b.Fatal(err)
		}
		acc, _ := l.Accept()
		scAcc, err := mpicrypt.Secure(acc, []byte("job-token"))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sc.Send(payload); err != nil {
				b.Fatal(err)
			}
			if _, err := scAcc.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15MitigationTax: cost-model evaluation (cheap; here for
// completeness so every experiment has a bench target).
func BenchmarkE15MitigationTax(b *testing.B) {
	b.ReportAllocs()
	on := mitig.DefaultMitigations()
	profiles := mitig.Profiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range profiles {
			_ = mitig.Slowdown(w, on)
		}
	}
}

// BenchmarkFleetCampaign: the E4 policy-grid campaign (3 scenarios ×
// 8 replications = 24 independent cluster drains) executed by the
// fleet engine at several worker counts. Results are bit-identical
// across the sub-benchmarks (the engine's determinism contract);
// only wall-clock moves, so on a multi-core host the 4w/8w rows show
// the shard speedup while on a single-core host they stay flat.
func BenchmarkFleetCampaign(b *testing.B) {
	b.ReportAllocs()
	camp := fleet.MustPreset(fleet.PresetE4PolicyGrid)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dw", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(camp, fleet.Options{Workers: workers, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrialLifecycle: the cost of one campaign trial under the
// two lifecycle strategies — fresh cluster construction per trial
// (pre-PR5 behaviour, Options.DisablePooling) vs pooled reuse via
// core.Cluster.Reset. The campaign (fleet.LifecycleCampaign) is
// construction-heavy and drain-light on purpose: the delta between
// the two rows IS the lifecycle overhead pooling removes, while the
// simulation work inside each trial is identical. ns/op and allocs/op
// here are per trial; the acceptance criterion (≥40% ns, ≥60% allocs
// reduction) is recorded in BENCH_PR5.json and the allocs half is
// additionally pinned deterministically by
// fleet.TestPooledTrialAllocsReduction.
func BenchmarkTrialLifecycle(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []struct {
		name    string
		pooling bool
	}{{"fresh", false}, {"pooled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			reps := 8
			camp := fleet.LifecycleCampaign(reps)
			for i := 0; i < b.N; i += reps {
				if _, err := fleet.Run(camp, fleet.Options{Workers: 1, Seed: 42, DisablePooling: !mode.pooling}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16Ablation: the full enhanced-minus-one sweep — ten
// cluster builds with the complete separation probe battery plus ten
// E4-style utilization drains. This is the repo's heaviest composite
// operation; it tracks the cost of "rebuild the world per ablation",
// which is what every table-driven configuration study pays.
func BenchmarkE16Ablation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSweep(); err != nil {
			b.Fatal(err)
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
	b.ReportAllocs()
	camp := fleet.MustPreset(fleet.PresetE17RedTeam)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dw", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(camp, fleet.Options{Workers: workers, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
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
// reports live heap as "heap-bytes" (benchharness records it in
// BENCH_*.json); at full size the heap must stay under xxlHeapCeiling.
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
