package simos

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// The Table Reset contract: after Reset, the table is observationally
// equivalent to the state at MarkPristine — same entries, same next
// PID, same generation.

func TestTableResetRewindsToMark(t *testing.T) {
	tab := NewTable(nil)
	d1 := tab.spawnDaemon([]string{"systemd"})
	d2 := tab.spawnDaemon([]string{"sshd"})
	tab.MarkPristine()
	genAtMark := tab.gen

	u := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	p := tab.Spawn(u, 1, "work", "--secret")
	tab.SpawnJob(u, 7, 1<<20, "slurmstepd", "work")
	if !tab.exit(d2.PID) {
		t.Fatalf("exit(%d) found no process", d2.PID)
	}
	tab.Reset()

	if got := tab.gen; got != genAtMark {
		t.Errorf("generation %d after Reset, want the mark's %d", got, genAtMark)
	}
	all := tab.snapshot()
	if len(all) != 2 || all[0].PID != d1.PID || all[1].PID != d2.PID {
		t.Fatalf("reset table = %v, want the two pristine daemons", all)
	}
	// PID numbering rewinds: the next spawn gets the PID a fresh
	// post-mark table would hand out.
	np := tab.Spawn(u, 1, "work")
	if np.PID != p.PID {
		t.Errorf("post-reset spawn got PID %d, want %d (numbering rewound)", np.PID, p.PID)
	}
}

func TestTableResetFastPathKeepsEntries(t *testing.T) {
	tab := NewTable(nil)
	tab.spawnDaemon([]string{"systemd"})
	tab.MarkPristine()
	before := tab.snapshot()
	tab.Reset() // nothing changed since the mark
	after := tab.snapshot()
	if len(after) != 1 || after[0] != before[0] {
		t.Error("untouched table should keep its shared entries across Reset")
	}
	// The fast path must still rewind the PID counter after spawns
	// that net out to the pristine set... which they cannot without
	// touching entries; but spawn+exit of the same PID changes the
	// pointer set, so the slow path catches it:
	u := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	p := tab.Spawn(u, 1, "x")
	tab.exit(p.PID)
	tab.Reset()
	if np := tab.Spawn(u, 1, "x"); np.PID != p.PID {
		t.Errorf("PID %d after spawn/exit/reset, want %d", np.PID, p.PID)
	}
}

func TestTableResetWithoutMarkEmpties(t *testing.T) {
	tab := NewTable(nil)
	u := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	tab.Spawn(u, 1, "x")
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("unmarked table has %d entries after Reset, want 0", tab.Len())
	}
	if p := tab.Spawn(u, 1, "x"); p.PID != 1 {
		t.Errorf("first PID after unmarked Reset = %d, want 1", p.PID)
	}
}

// Node.Reset must recover the construction state even after the
// harshest trial history: a crash (which kills the daemons) plus a
// restore (which respawns them under new PIDs).
func TestNodeResetAfterCrashRestore(t *testing.T) {
	fresh := NewNode("c0", Compute, 4, 1<<30, nil)
	n := NewNode("c0", Compute, 4, 1<<30, nil)

	u := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	if _, err := n.Login(u); err != nil {
		t.Fatal(err)
	}
	n.Crash()
	n.Restore()
	if got := n.Procs.snapshot(); len(got) == 0 || got[0].PID == 1 {
		t.Fatalf("restore should have respawned daemons under new PIDs, got %v", got)
	}
	n.Reset()

	if n.Down() {
		t.Error("node still down after Reset")
	}
	want := fresh.Procs.snapshot()
	got := n.Procs.snapshot()
	if len(got) != len(want) {
		t.Fatalf("reset node has %d processes, fresh has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PID != want[i].PID || got[i].Comm != want[i].Comm {
			t.Errorf("proc %d: got (pid %d, %s), fresh (pid %d, %s)",
				i, got[i].PID, got[i].Comm, want[i].PID, want[i].Comm)
		}
	}
	// And the next spawn matches a fresh node's next spawn.
	gp, fp := n.Procs.Spawn(u, 1, "x"), fresh.Procs.Spawn(u, 1, "x")
	if gp.PID != fp.PID {
		t.Errorf("post-reset PID %d, fresh %d", gp.PID, fp.PID)
	}
}

// Regression: Reset's fast path must invalidate the snapshot cache.
// A snapshot cached at a post-mark generation must never be served
// again when the rewound counter climbs back to the same value.
func TestTableResetFastPathInvalidatesSnapshotCache(t *testing.T) {
	tab := NewTable(nil)
	tab.spawnDaemon([]string{"systemd"})
	tab.MarkPristine()
	u := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}

	// Trial 1: spawn (gen+1), cache a snapshot holding the job, exit
	// (gen+2) — the map is now pointer-identical to pristine, so Reset
	// takes the fast path.
	p := tab.Spawn(u, 1, "trial1-job")
	if got := tab.snapshot(); len(got) != 2 {
		t.Fatalf("trial 1 snapshot has %d procs, want 2", len(got))
	}
	if !tab.exit(p.PID) {
		t.Fatalf("exit(%d) found no process", p.PID)
	}
	tab.Reset()

	// Trial 2: the first spawn lands on the same generation the stale
	// snapshot was cached at; the snapshot must show trial 2's process, not
	// trial 1's.
	p2 := tab.Spawn(u, 1, "trial2-job")
	got := tab.snapshot()
	if len(got) != 2 || got[1].PID != p2.PID || got[1].Comm != "trial2-job" {
		names := make([]string, len(got))
		for i, pp := range got {
			names[i] = pp.Comm
		}
		t.Fatalf("post-reset snapshot shows %v — stale trial-1 snapshot served", names)
	}
}

// A crash kills every process on the node, daemons included; Restore
// publishes the three base daemons at the next PIDs; Reset brings back
// a fresh node's table, field by field. Once warmed, the whole cycle
// allocates nothing: the crash clears the table in place, and the
// restored daemons come from storage Reset recycles.
func TestCrashRestoreResetCycle(t *testing.T) {
	fresh := NewNode("c0", Compute, 4, 1<<30, nil)
	n := NewNode("c0", Compute, 4, 1<<30, nil)
	u := testCred(1000)
	if _, err := n.Login(u); err != nil {
		t.Fatal(err)
	}
	n.Procs.SpawnJob(u, 1, 1<<20, "a.out")
	n.Procs.SpawnJob(u, 2, 1<<20, "b.out", "--secret")

	if got := n.Crash(); got != 6 {
		t.Errorf("Crash killed %d processes, want 6 (3 daemons, a shell, 2 tasks)", got)
	}
	if n.Procs.Len() != 0 || len(n.Procs.snapshot()) != 0 || !n.Down() {
		t.Fatalf("after Crash: Len %d, All %v, down %v; want an empty, down node", n.Procs.Len(), n.Procs.snapshot(), n.Down())
	}

	n.Restore()
	got := n.Procs.snapshot()
	want := []struct {
		pid     ids.PID
		cmdline []string
	}{{7, []string{"systemd"}}, {8, []string{"sshd"}}, {9, []string{"slurmd", "-D"}}}
	if len(got) != len(want) || n.Down() {
		t.Fatalf("after Restore: %d processes (down %v), want %d daemons", len(got), n.Down(), len(want))
	}
	for i, w := range want {
		p := got[i]
		if p.PID != w.pid || p.Comm != w.cmdline[0] || !slices.Equal(p.Cmdline, w.cmdline) ||
			!p.Daemon || p.Cred.UID != ids.Root || p.State != StateSleeping || p.PPID != 1 {
			t.Errorf("restored daemon %d = %+v, want pid %d cmdline %v", i, *p, w.pid, w.cmdline)
		}
	}

	n.Reset()
	if g, w := values(n.Procs.snapshot()), values(fresh.Procs.snapshot()); !reflect.DeepEqual(g, w) {
		t.Errorf("after Reset the table is %+v, a fresh node's %+v", g, w)
	}

	cycle := func() {
		n.Crash()
		n.Restore()
		n.Reset()
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Errorf("warmed crash, restore and Reset allocate %v objects, want 0", a)
	}
	if g, w := values(n.Procs.snapshot()), values(fresh.Procs.snapshot()); !reflect.DeepEqual(g, w) {
		t.Errorf("after the cycles the table is %+v, a fresh node's %+v", g, w)
	}
}
