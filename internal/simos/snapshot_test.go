package simos

import (
	"slices"
	"testing"

	"repro/internal/ids"
)

// TestSnapshotGenerationInvalidation proves the copy-on-write
// snapshot contract: unchanged tables serve the identical cached
// slice, every mutation invalidates it, and a stale snapshot is never
// served after a mutation.
func TestSnapshotGenerationInvalidation(t *testing.T) {
	tb := NewTable(nil)
	p1 := tb.Spawn(testCred(1000), 0, "a")
	p2 := tb.Spawn(testCred(2000), 0, "b")

	s1 := tb.snapshot()
	s2 := tb.snapshot()
	if len(s1) != 2 || len(s2) != 2 {
		t.Fatalf("All lens = %d, %d, want 2", len(s1), len(s2))
	}
	// No mutation between the two calls: the cached snapshot is
	// shared, not rebuilt.
	if &s1[0] != &s2[0] {
		t.Errorf("idle table rebuilt its snapshot")
	}
	gen := tb.gen
	tb.Visit(func(*Process) bool { return true })
	if tb.gen != gen {
		t.Errorf("reading the table changed its generation")
	}

	// Every mutating operation must bump the generation and serve a
	// fresh snapshot reflecting the change.
	pj := tb.SpawnJob(testCred(1000), 7, 1234, "slurmstepd", "x")
	if tb.gen == gen {
		t.Fatalf("SpawnJob did not bump generation")
	}
	s3 := tb.snapshot()
	if len(s3) != 3 || s3[2].JobID != 7 || s3[2].RSS != 1234 {
		t.Errorf("stale snapshot served after SpawnJob: %v", s3)
	}
	// Spawning publishes a new entry and leaves the others alone: the
	// earlier snapshot's entries are still the live ones.
	if q, _ := tb.Lookup(p1.PID); q != s1[0] {
		t.Errorf("SpawnJob replaced an unrelated entry")
	}
	gen = tb.gen
	if !tb.ExitJob(pj, 7) || tb.gen == gen {
		t.Fatalf("ExitJob did not remove the entry and bump generation")
	}
	if got := tb.snapshot(); len(got) != 2 {
		t.Errorf("stale snapshot after ExitJob: len = %d", len(got))
	}

	if !tb.exit(p1.PID) {
		t.Fatalf("exit(%d) found no process", p1.PID)
	}
	if got := tb.snapshot(); len(got) != 1 || got[0].PID != p2.PID {
		t.Errorf("stale snapshot after Exit: %v", got)
	}
	// And the pre-exit snapshot still lists every process.
	if len(s3) != 3 {
		t.Errorf("old snapshot shrank after Exit: len = %d", len(s3))
	}

	tb.Spawn(testCred(1000), 0, "c")
	if got := tb.snapshot(); len(got) != 2 {
		t.Errorf("stale snapshot after Spawn: len = %d", len(got))
	}
}

// TestStaleSnapshotKeepsExitedTask checks that a task entry is never
// recycled before Reset: a snapshot taken before ExitJob still shows
// the exited task, argv included, after later spawns on the same
// table.
func TestStaleSnapshotKeepsExitedTask(t *testing.T) {
	tb := NewTable(nil)
	pid := tb.SpawnJob(testCred(1000), 7, 1, "slurmstepd", "a.out --token=7")
	stale := tb.snapshot()
	if !tb.ExitJob(pid, 7) {
		t.Fatal("ExitJob did not remove the task")
	}
	for i := 0; i < 64; i++ {
		tb.SpawnJob(testCred(2000), 8+i, 1, "slurmstepd", "b.out --token=other")
		tb.Spawn(testCred(2000), 0, "bash", "-c", "other")
	}
	if len(stale) != 1 {
		t.Fatalf("stale snapshot has %d entries, want 1", len(stale))
	}
	p := stale[0]
	want := []string{"slurmstepd", "a.out --token=7"}
	if p.PID != pid || p.JobID != 7 || p.Cred.UID != 1000 || !slices.Equal(p.Cmdline, want) {
		t.Errorf("stale snapshot entry = pid %d job %d uid %d %q, want pid %d job 7 uid 1000 %q",
			p.PID, p.JobID, p.Cred.UID, p.Cmdline, pid, want)
	}
}

// TestSpawnJobCmdline checks a task's argv for zero to three
// arguments, within and past the inline array.
func TestSpawnJobCmdline(t *testing.T) {
	tb := NewTable(nil)
	for _, argv := range [][]string{nil, {"a"}, {"a", "b"}, {"a", "b", "c"}} {
		pid := tb.SpawnJob(testCred(1000), 1, 1, "w", argv...)
		p, ok := tb.Lookup(pid)
		if !ok {
			t.Fatalf("SpawnJob(%q) published no entry", argv)
		}
		if want := append([]string{"w"}, argv...); !slices.Equal(p.Cmdline, want) {
			t.Errorf("SpawnJob(%q) Cmdline = %q, want %q", argv, p.Cmdline, want)
		}
	}
}

// TestVisitOrderAndEarlyStop checks Visit sees the PID-sorted
// snapshot and honours an early false return.
func TestVisitOrderAndEarlyStop(t *testing.T) {
	tb := NewTable(nil)
	for i := 0; i < 5; i++ {
		tb.Spawn(testCred(1000), 0, "p")
	}
	var pids []ids.PID
	tb.Visit(func(p *Process) bool {
		pids = append(pids, p.PID)
		return len(pids) < 3
	})
	if len(pids) != 3 {
		t.Fatalf("Visit visited %d, want early stop at 3", len(pids))
	}
	for i := 1; i < len(pids); i++ {
		if pids[i-1] >= pids[i] {
			t.Errorf("Visit order not PID-sorted: %v", pids)
		}
	}
}

// TestVisitReentrancy: Visit holds no lock while the callback runs,
// so the callback may call back into the table.
func TestVisitReentrancy(t *testing.T) {
	tb := NewTable(nil)
	tb.Spawn(testCred(1000), 0, "a")
	tb.Spawn(testCred(2000), 0, "b")
	n := 0
	tb.Visit(func(p *Process) bool {
		if _, ok := tb.Lookup(p.PID); !ok {
			t.Errorf("Lookup(%d) inside Visit found nothing", p.PID)
		}
		n++
		return true
	})
	if n != 2 {
		t.Errorf("visited %d, want 2", n)
	}
}
