package sched

import (
	"reflect"
	"testing"

	"repro/internal/ids"
)

// replayTrace submits a fixed multi-user workload (including an OOM
// job and a cancel) and drains it, returning the accounting records —
// the full observable history of the run.
func replayTrace(t *testing.T, s *Scheduler) []AccountingRecord {
	t.Helper()
	u1, u2 := cred(1000), cred(1001)
	for i := 0; i < 6; i++ {
		c := u1
		if i%2 == 1 {
			c = u2
		}
		sp := spec(1+i%3, int64(2+i%2))
		if i == 4 {
			sp.MemB = 1
			sp.ActualMemB = 64 << 30 // blows past node memory: OOM crash
		}
		if _, err := s.Submit(c, sp); err != nil {
			t.Fatal(err)
		}
	}
	j, err := s.Submit(u1, spec(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(u1, j); err != nil {
		t.Fatal(err)
	}
	s.RunAll(1000)
	return s.Sacct(ids.RootCred())
}

// The Scheduler Reset contract: a reset scheduler replays any workload
// with exactly the history a freshly-constructed one produces — same
// job IDs, same placements, same crash accounting — and its capacity
// aggregates come back consistent.
func TestSchedulerResetReplaysLikeFresh(t *testing.T) {
	build := func() *Scheduler {
		return New(Config{Policy: PolicyShared}, computeNodes(4, 8, 16<<30), 0)
	}
	s := build()
	_ = replayTrace(t, s) // dirty pass 1
	s.Reset()
	checkAggregates(t, s, "after Reset")
	if c, cf := s.Crashes(); c != 0 || cf != 0 {
		t.Errorf("crash counters (%d, %d) survived Reset", c, cf)
	}
	if s.now != 0 || len(s.pending) != 0 || s.Utilization() != 0 {
		t.Errorf("time/queue/utilization state survived Reset: now=%d pending=%d util=%v",
			s.now, len(s.pending), s.Utilization())
	}

	gotRecords := replayTrace(t, s)
	wantRecords := replayTrace(t, build())
	if !reflect.DeepEqual(gotRecords, wantRecords) {
		t.Errorf("replay after Reset diverged from fresh scheduler:\n%v\nvs\n%v", gotRecords, wantRecords)
	}
	checkAggregates(t, s, "after replay on reset scheduler")
}

// Reset on a drained scheduler must not allocate: all maps are
// cleared in place and slices truncated.
func TestSchedulerResetAllocationFree(t *testing.T) {
	s := New(Config{Policy: PolicyShared}, computeNodes(4, 8, 16<<30), 0)
	_ = replayTrace(t, s)
	s.Reset()
	_ = replayTrace(t, s)
	allocs := testing.AllocsPerRun(10, func() { s.Reset() })
	if allocs > 0 {
		t.Errorf("Reset allocates %.1f objects per call, want 0", allocs)
	}
}

// Reset must also clear externally-injected node failures (lastDown
// bookkeeping) once the nodes themselves are reset.
func TestSchedulerResetAfterNodeCrash(t *testing.T) {
	nodes := computeNodes(2, 4, 16<<30)
	s := New(Config{Policy: PolicyShared}, nodes, 0)
	if _, err := s.Submit(cred(1000), spec(1, 100)); err != nil {
		t.Fatal(err)
	}
	s.Step()
	nodes[0].Crash()
	s.Step() // fails the job, records the down transition
	nodes[0].Restore()
	for _, n := range nodes {
		n.Reset()
	}
	s.Reset()
	checkAggregates(t, s, "after crash + reset")
	// A full-width job must place again: all capacity is back.
	j, err := s.Submit(cred(1000), spec(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	got, err := s.Job(j)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Running {
		t.Errorf("full-cluster job is %v after reset, want Running", got.State)
	}
	if j != 1 {
		t.Errorf("job numbering did not rewind: first post-reset ID %d", j)
	}
}
