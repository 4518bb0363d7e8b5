package simos

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func testCred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func TestSpawnAssignsSequentialPIDs(t *testing.T) {
	tb := NewTable(nil)
	p1 := tb.Spawn(testCred(1000), 0, "a.out")
	p2 := tb.Spawn(testCred(1000), p1.PID, "b.out", "--flag")
	if p2.PID <= p1.PID {
		t.Errorf("PIDs not increasing: %d then %d", p1.PID, p2.PID)
	}
	if p2.PPID != p1.PID {
		t.Errorf("PPID = %d, want %d", p2.PPID, p1.PID)
	}
	if got := p2.Cmdline; len(got) != 2 || got[1] != "--flag" {
		t.Errorf("Cmdline = %v", got)
	}
}

func TestSpawnJobExitJob(t *testing.T) {
	tb := NewTable(nil)
	var pids []ids.PID
	for i := 0; i < 5; i++ {
		pids = append(pids, tb.SpawnJob(testCred(1000), 42, 777, "slurmstepd", "rank --secret"))
	}
	other := tb.Spawn(testCred(1000), 0, "shell") // no job
	p, ok := tb.Lookup(pids[0])
	if !ok {
		t.Fatal("SpawnJob entry not published")
	}
	if p.PPID != 1 || p.JobID != 42 || p.RSS != 777 || p.Cred.UID != 1000 || p.State != StateRunning {
		t.Errorf("SpawnJob entry = %+v", p)
	}
	if p.Comm != "slurmstepd" || len(p.Cmdline) != 2 || p.Cmdline[1] != "rank --secret" {
		t.Errorf("SpawnJob cmdline = %q %v", p.Comm, p.Cmdline)
	}
	// Only the owning job's ID removes the entry.
	if tb.ExitJob(pids[0], 41) {
		t.Error("ExitJob removed another job's process")
	}
	if tb.ExitJob(other.PID, 42) {
		t.Error("ExitJob removed a process outside the job")
	}
	for _, pid := range pids {
		if !tb.ExitJob(pid, 42) {
			t.Errorf("ExitJob(%d) removed nothing", pid)
		}
	}
	// Already gone (a crash got there first): a no-op.
	if tb.ExitJob(pids[0], 42) {
		t.Error("ExitJob removed an exited process twice")
	}
	if _, ok := tb.Lookup(other.PID); !ok {
		t.Error("ExitJob killed a non-member")
	}
}

func TestExitJobZeroIsNoop(t *testing.T) {
	tb := NewTable(nil)
	p := tb.Spawn(testCred(1000), 0, "shell")
	gen := tb.gen
	if tb.ExitJob(p.PID, 0) {
		t.Error("ExitJob(pid, 0) removed a job-less process")
	}
	if tb.gen != gen {
		t.Error("a no-op ExitJob bumped the generation")
	}
}

func TestCrashRefusesLoginUntilRestore(t *testing.T) {
	n := NewNode("c1", Compute, 8, 1000, nil)
	n.Procs.SpawnJob(testCred(1000), 1, 900, "hog")
	if killed := n.Crash(); killed == 0 {
		t.Errorf("crash killed nothing")
	}
	if !n.Down() {
		t.Errorf("node not marked down")
	}
	if _, err := n.Login(testCred(1000)); !errors.Is(err, ErrNodeDown) {
		t.Errorf("login to down node err = %v", err)
	}
	n.Restore()
	if n.Down() {
		t.Errorf("Restore left node down")
	}
	if _, err := n.Login(testCred(1000)); err != nil {
		t.Errorf("login after restore: %v", err)
	}
}

func TestNodeStartsWithDaemons(t *testing.T) {
	n := NewNode("login1", Login, 16, 1<<30, nil)
	all := n.Procs.snapshot()
	if len(all) != 3 {
		t.Fatalf("fresh node has %d procs, want 3 daemons", len(all))
	}
	for _, p := range all {
		if !p.Daemon || !p.Cred.IsRoot() {
			t.Errorf("daemon %s not root-owned daemon", p.Comm)
		}
	}
}

func TestPAMStackDeniesAndAllows(t *testing.T) {
	n := NewNode("c1", Compute, 8, 1<<30, nil)
	denyAll := func(_ *Node, uid ids.UID) error {
		if uid != 1000 {
			return fmt.Errorf("uid %d has no job here", uid)
		}
		return nil
	}
	n.AddPAMHook(denyAll)
	if _, err := n.Login(testCred(2000)); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("denied login err = %v, want ErrAccessDenied", err)
	}
	sh, err := n.Login(testCred(1000))
	if err != nil {
		t.Fatalf("allowed login: %v", err)
	}
	if sh.Comm != "bash" {
		t.Errorf("login spawned %q", sh.Comm)
	}
}

func TestDevPermissions(t *testing.T) {
	n := NewNode("g1", Compute, 8, 1<<30, nil)
	n.AddDev("/dev/nvidia0", ids.Root, ids.RootGroup, 0o000)
	alice := testCred(1000)
	// Unassigned GPU: no user opens it.
	if _, err := n.OpenDev(alice, "/dev/nvidia0"); !errors.Is(err, ErrPermission) {
		t.Errorf("unassigned GPU open err = %v, want ErrPermission", err)
	}
	// Root always opens.
	if _, err := n.OpenDev(ids.RootCred(), "/dev/nvidia0"); err != nil {
		t.Errorf("root open: %v", err)
	}
	// Assign to alice's private group.
	if err := n.ChownDev(ids.RootCred(), "/dev/nvidia0", ids.Root, alice.EGID, 0o660); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenDev(alice, "/dev/nvidia0"); err != nil {
		t.Errorf("assigned user open: %v", err)
	}
	bob := testCred(2000)
	if _, err := n.OpenDev(bob, "/dev/nvidia0"); !errors.Is(err, ErrPermission) {
		t.Errorf("stranger open err = %v, want ErrPermission", err)
	}
	// Non-root cannot chown.
	if err := n.ChownDev(bob, "/dev/nvidia0", bob.UID, bob.EGID, 0o666); !errors.Is(err, ErrPermission) {
		t.Errorf("non-root chown err = %v, want ErrPermission", err)
	}
	// Owner permission beats group: owner with 0600.
	n.AddDev("/dev/nvidia1", 2000, 999, 0o600)
	if _, err := n.OpenDev(bob, "/dev/nvidia1"); err != nil {
		t.Errorf("owner open: %v", err)
	}
}

func TestOpenDevMissing(t *testing.T) {
	n := NewNode("c1", Compute, 1, 1, nil)
	if _, err := n.OpenDev(ids.RootCred(), "/dev/none"); !errors.Is(err, ErrNoSuchDev) {
		t.Errorf("err = %v, want ErrNoSuchDev", err)
	}
	if err := n.ChownDev(ids.RootCred(), "/dev/none", 0, 0, 0); !errors.Is(err, ErrNoSuchDev) {
		t.Errorf("chown err = %v, want ErrNoSuchDev", err)
	}
}

// Property: after any sequence of spawns and exits, every spawn got a
// PID never handed out before, and the snapshot is sorted by PID and contains
// no dead processes.
func TestQuickTableConsistency(t *testing.T) {
	f := func(ops []bool) bool {
		tb := NewTable(nil)
		var live []ids.PID
		seen := make(map[ids.PID]bool)
		for k, spawn := range ops {
			if spawn || len(live) == 0 {
				p := tb.Spawn(testCred(ids.UID(1000+k%8)), 0, "p")
				if seen[p.PID] {
					return false
				}
				seen[p.PID] = true
				live = append(live, p.PID)
			} else {
				victim := live[len(live)-1]
				live = live[:len(live)-1]
				if !tb.exit(victim) {
					return false
				}
			}
		}
		all := tb.snapshot()
		if len(all) != len(live) {
			return false
		}
		for i := 1; i < len(all); i++ {
			if all[i-1].PID >= all[i].PID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProcStateString(t *testing.T) {
	cases := map[ProcState]string{StateRunning: "R", StateSleeping: "S", StateZombie: "Z", ProcState(9): "X"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{Compute: "compute", Login: "login", DataTransfer: "dtn", InteractiveDebug: "debug", NodeKind(99): "unknown"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// BenchmarkSpawnJobExit measures one task process's life in a node's
// table: SpawnJob publishes the entry, ExitJob removes it. Exited
// entries are held until Reset, so the table is Reset every 1024
// spawns, as a pooled trial would be: the benchmark measures the
// steady state, in which the job slab is recycled and a spawn
// allocates nothing.
func BenchmarkSpawnJobExit(b *testing.B) {
	tb := NewNode("c1", Compute, 8, 1<<30, nil).Procs
	c := testCred(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			tb.Reset()
		}
		pid := tb.SpawnJob(c, 1+i, 1<<20, "slurmstepd", "a.out --secret")
		if !tb.ExitJob(pid, 1+i) {
			b.Fatal("ExitJob removed nothing")
		}
	}
}
