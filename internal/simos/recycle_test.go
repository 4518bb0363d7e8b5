package simos

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// recycleTrial is a pooled trial's worth of job starts and finishes on
// one table: enough task entries to span several slab chunks, with
// exits interleaved so that live and exited entries share chunks. Its
// credentials and argvs are built once, so that the trial itself
// allocates only what the table does.
func recycleTrial(tb *Table) {
	var live [150]ids.PID
	for i := 0; i < 150; i++ {
		live[i] = tb.SpawnJob(recycleCreds[i%len(recycleCreds)], 1+i, int64(i)<<20, "slurmstepd", recycleArgv[i%len(recycleArgv)])
		if i%3 == 2 {
			tb.ExitJob(live[i/3], 1+i/3)
		}
	}
}

var (
	recycleCreds = []ids.Credential{testCred(1000), testCred(1001), testCred(1002)}
	recycleArgv  = []string{"a.out --secret=alpha", "a.out --secret=bravo", "b.out --secret=charlie", "c.out"}
)

// deepCopy returns a copy of p that shares no storage with it.
func deepCopy(p *Process) Process {
	c := *p
	c.Cred.Groups = slices.Clone(p.Cred.Groups)
	c.Cmdline = slices.Clone(p.Cmdline)
	return c
}

// exit removes live process pid from the table, reporting whether
// there was one.
func (t *Table) exit(pid ids.PID) bool {
	p, i := t.lookup(pid)
	if p == nil {
		return false
	}
	t.remove(i)
	return true
}

// values deep-copies a snapshot.
func values(ps []*Process) []Process {
	out := make([]Process, len(ps))
	for i, p := range ps {
		out[i] = deepCopy(p)
	}
	return out
}

// TestResetReplayAllocFree checks the recycling the job slab exists
// for: after one warm trial and a Reset, replaying the same spawns
// allocates nothing, and the table then equals a fresh table that ran
// the trial once, field by field, PIDs included.
func TestResetReplayAllocFree(t *testing.T) {
	tb := NewNode("c1", Compute, 8, 1<<30, nil).Procs
	recycleTrial(tb)
	if got := testing.AllocsPerRun(20, func() {
		tb.Reset()
		recycleTrial(tb)
	}); got != 0 {
		t.Errorf("Reset and replayed trial allocate %v objects, want 0", got)
	}
	fresh := NewNode("c1", Compute, 8, 1<<30, nil).Procs
	recycleTrial(fresh)
	if got, want := values(tb.snapshot()), values(fresh.snapshot()); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed table = %+v\nwant a fresh table's %+v", got, want)
	}
}

// checkSnapshot checks that the shared snapshot of a table whose task
// entries reuse recycled storage is consistent: it is strictly
// PID-sorted, Visit walks the same entries, and Lookup finds every
// entry.
func checkSnapshot(t *testing.T, tb *Table, when string) {
	t.Helper()
	all := tb.snapshot()
	for k := 1; k < len(all); k++ {
		if all[k-1].PID >= all[k].PID {
			t.Fatalf("%s: snapshot not sorted/unique at %d", when, k)
		}
	}
	k := 0
	tb.Visit(func(p *Process) bool {
		if k >= len(all) || all[k] != p {
			t.Fatalf("%s: Visit entry %d differs from the snapshot", when, k)
		}
		k++
		return true
	})
	for _, p := range all {
		if g, ok := tb.Lookup(p.PID); !ok || g != p {
			t.Fatalf("%s: Lookup(%d) = %+v, %v; want %+v", when, p.PID, g, ok, p)
		}
	}
}

// TestResetKeepsEntriesBelowMark checks that the rewind never reaches
// below the pristine mark: task entries spawned before MarkPristine,
// one of them exited, keep their storage and contents across Resets
// and the spawns that reuse the storage above the mark, and that the
// snapshot stays consistent while spawns reuse that storage.
func TestResetKeepsEntriesBelowMark(t *testing.T) {
	tb := NewNode("c1", Compute, 8, 1<<30, nil).Procs
	// Three daemons and three tasks: the mark lands inside the slab's
	// second chunk.
	var pids []ids.PID
	for i := 0; i < 3; i++ {
		pids = append(pids, tb.SpawnJob(testCred(1000), 1+i, 1, "slurmstepd", "a.out --token=pristine"))
	}
	exited, _ := tb.Lookup(pids[2])
	exitedWant := deepCopy(exited)
	tb.ExitJob(pids[2], 3)
	tb.MarkPristine()
	marked := tb.snapshot()
	want := values(marked)

	check := func(when string) {
		t.Helper()
		if got := values(marked); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pristine entries = %+v, want %+v", when, got, want)
		}
		if got := deepCopy(exited); !reflect.DeepEqual(got, exitedWant) {
			t.Fatalf("%s: task exited before the mark = %+v, want %+v", when, got, exitedWant)
		}
		for _, p := range marked {
			if q, ok := tb.Lookup(p.PID); !ok || q != p {
				t.Fatalf("%s: pid %d is no longer the marked entry", when, p.PID)
			}
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		recycleTrial(tb)
		check("during a trial")
		checkSnapshot(t, tb, "during a trial")
		tb.Reset()
		check("after Reset")
		checkSnapshot(t, tb, "after Reset")
	}
	for i := 0; i < 100; i++ {
		tb.SpawnJob(testCred(2000), 500+i, 1, "slurmstepd", "b.out --token=later")
	}
	check("after later spawns")
}
