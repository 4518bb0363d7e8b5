package sched

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// TestCalendarHeapOrder: pops come out (due, ID)-ordered regardless
// of push order.
func TestCalendarHeapOrder(t *testing.T) {
	var c calendar
	rng := metrics.NewRNG(5)
	jobs := make([]*Job, 200)
	for i := range jobs {
		jobs[i] = &Job{ID: i + 1, State: Running}
		c.push(int64(1+rng.Intn(20)), jobs[i])
	}
	var prev calEntry
	for n := 0; len(c) > 0; n++ {
		e := c.pop()
		if n > 0 {
			if e.due < prev.due || (e.due == prev.due && e.job.ID < prev.job.ID) {
				t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", n, e.due, e.job.ID, prev.due, prev.job.ID)
			}
		}
		prev = e
	}
}

// TestCalendarLazyDeletion: cancelled and crashed jobs linger as
// stale entries but are never popped as due, and nextDue skips them.
func TestCalendarTracksRunning(t *testing.T) {
	s := New(Config{Policy: PolicyShared}, computeNodes(2, 8, 1<<20), 0)
	rng := metrics.NewRNG(6)
	var live []int
	for round := 0; round < 100; round++ {
		switch rng.Intn(4) {
		case 0, 1:
			sp := spec(1+rng.Intn(6), 1+int64(rng.Intn(6)))
			if rng.Intn(8) == 0 {
				sp.ActualMemB = 2 << 20 // OOM: leaves a stale calendar entry
			}
			j, err := s.Submit(cred(ids.UID(1000+rng.Intn(3))), sp)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, j)
		case 2:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				_ = s.Cancel(ids.RootCred(), live[k])
				live = append(live[:k], live[k+1:]...)
			}
		default:
			s.Step()
		}
		checkIndexes(t, s, "mid-campaign")
	}
	s.RunAll(10000)
	checkIndexes(t, s, "after drain")
	if _, ok := s.calendar.nextDue(); ok {
		t.Error("nextDue reports an event on an idle cluster")
	}
	if len(s.calendar) != 0 {
		t.Errorf("calendar holds %d stale entries after nextDue drained an idle cluster", len(s.calendar))
	}
}

// TestRunAllFastForward: RunAll must jump over event-free gaps —
// long-duration jobs with nothing pending — and still produce the
// exact tick count, utilization, and accounting a Step loop would.
func TestRunAllFastForward(t *testing.T) {
	build := func() *Scheduler {
		s := New(Config{Policy: PolicyShared}, computeNodes(2, 8, 1<<20), 0)
		for i, dur := range []int64{500, 123, 1, 997, 40} {
			if _, err := s.Submit(cred(ids.UID(1000+i%2)), spec(2+i, dur)); err != nil {
				t.Fatal(err)
			}
		}
		// One job that can never start alongside the rest but fits
		// alone at the end: exercises unblock-on-completion.
		if _, err := s.Submit(cred(1000), spec(16, 10)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fast, slow := build(), build()
	fastTicks := fast.RunAll(100000)
	slowTicks := 0
	for tick := 0; tick < 100000; tick++ {
		slow.Step()
		slowTicks = tick + 1
		_, running := slow.calendar.nextDue()
		idle := !running && len(slow.pending) == 0
		if idle {
			break
		}
	}
	if fastTicks != slowTicks {
		t.Fatalf("RunAll ticks = %d, Step loop = %d", fastTicks, slowTicks)
	}
	if fu, su := fast.Utilization(), slow.Utilization(); fu != su {
		t.Fatalf("utilization diverged: RunAll %v, Step loop %v", fu, su)
	}
	fr, sr := fast.Sacct(ids.RootCred()), slow.Sacct(ids.RootCred())
	if len(fr) != len(sr) {
		t.Fatalf("record counts diverged: %d vs %d", len(fr), len(sr))
	}
	for i := range fr {
		fs, ss := fmt.Sprintf("%+v", fr[i]), fmt.Sprintf("%+v", sr[i])
		if fs != ss {
			t.Fatalf("record %d diverged:\nRunAll: %s\nSteps:  %s", i, fs, ss)
		}
	}
}

// TestRunAllFastForwardBudget: fast-forward must respect maxTicks
// exactly, including the deadlocked-queue case where no event ever
// comes.
func TestRunAllFastForwardBudget(t *testing.T) {
	s := New(Config{Policy: PolicyExclusive}, computeNodes(2, 8, 1<<20), 0)
	if _, err := s.Submit(cred(1000), spec(16, 100000)); err != nil {
		t.Fatal(err)
	}
	// Exclusive holds both nodes; this one waits forever.
	if _, err := s.Submit(cred(2000), spec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.RunAll(500); got != 500 {
		t.Fatalf("RunAll = %d, want maxTicks 500", got)
	}
	if now := s.Now(); now != 500 {
		t.Fatalf("now = %d after capped RunAll, want 500", now)
	}
	if n := s.PendingCount(); n != 1 {
		t.Fatalf("pending = %d, want the starved job", n)
	}
}
