package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// TestCalendarHeapOrder: the wheel hands out each tick's due jobs in
// ID order whatever the link order, over dues of 1–200 ticks (so up to
// three laps share a bucket), and nextDue always names the earliest
// due tick left.
func TestCalendarHeapOrder(t *testing.T) {
	var c calendar
	rng := metrics.NewRNG(5)
	jobs := make([]*Job, 300)
	left := make(map[*Job]bool)
	for i := range jobs {
		jobs[i] = &Job{ID: i + 1, State: Running, Spec: JobSpec{Duration: int64(1 + rng.Intn(200))}}
	}
	order := slices.Clone(jobs)
	for i := len(order) - 1; i > 0; i-- { // link in a shuffled order
		k := rng.Intn(i + 1)
		order[i], order[k] = order[k], order[i]
	}
	for _, j := range order {
		c.push(j)
		left[j] = true
	}
	var out []*Job
	for now := int64(0); now < 200; now++ {
		want := int64(-1)
		var wantDue []*Job
		for _, j := range jobs { // ID order
			if !left[j] {
				continue
			}
			if d := due(j); want < 0 || d < want {
				want = d
			}
			if due(j) == now+1 {
				wantDue = append(wantDue, j)
			}
		}
		if got, ok := c.nextDue(now); !ok || got != want {
			t.Fatalf("now %d: nextDue = %d, %v; want %d", now, got, ok, want)
		}
		out = c.popDue(now+1, out[:0])
		if !slices.Equal(out, wantDue) {
			t.Fatalf("tick %d: popDue = %v, want %v", now+1, out, wantDue)
		}
		for _, j := range out {
			c.remove(j)
			delete(left, j)
		}
		if c.live != len(left) {
			t.Fatalf("tick %d: live = %d, want %d", now+1, c.live, len(left))
		}
	}
	if c.live != 0 || c.heads != [wheelSize]*Job{} {
		t.Fatalf("wheel not empty after the last due tick: live %d", c.live)
	}
	if _, ok := c.nextDue(200); ok {
		t.Fatal("nextDue reports an event on an empty wheel")
	}
}

// TestCalendarTracksRunning: cancelled, OOM-killed and node-crashed
// jobs leave the wheel at once, so after every event it links exactly
// the Running jobs (checkIndexes) and nothing stale is left to skip.
func TestCalendarTracksRunning(t *testing.T) {
	nodes := computeNodes(2, 8, 1<<20)
	s := New(Config{Policy: PolicyShared}, nodes, 0)
	rng := metrics.NewRNG(6)
	var live []int
	for round := 0; round < 100; round++ {
		switch rng.Intn(5) {
		case 0, 1:
			sp := spec(1+rng.Intn(6), 1+int64(rng.Intn(6)))
			if rng.Intn(8) == 0 {
				sp.ActualMemB = 2 << 20 // OOM: leaves Running before its due tick
			}
			if rng.Intn(8) == 0 {
				sp.Duration = 64 + int64(rng.Intn(80)) // a lap or more out
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
		case 3: // external hardware failure, noticed by the next Step
			n := nodes[rng.Intn(len(nodes))]
			n.Crash()
			s.Step()
			n.Restore()
		default:
			s.Step()
		}
		checkIndexes(t, s, "mid-campaign")
	}
	s.RunAll(10000)
	checkIndexes(t, s, "after drain")
	if _, ok := s.calendar.nextDue(s.now); ok {
		t.Error("nextDue reports an event on an idle cluster")
	}
	if s.calendar.live != 0 || s.calendar.heads != [wheelSize]*Job{} {
		t.Errorf("wheel holds %d jobs after the drain", s.calendar.live)
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
		if slow.Unfinished() == 0 {
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
	if now := s.now; now != 500 {
		t.Fatalf("now = %d after capped RunAll, want 500", now)
	}
	if n := len(s.pending); n != 1 {
		t.Fatalf("pending = %d, want the starved job", n)
	}
}

// TestRunAllFastForwardLapped: with only lapped jobs running (due 64
// or more ticks out), the window nextDue scans first holds no due job,
// so it must find the earliest one on the later laps: RunAll jumps to
// each completion tick exactly and runs it for real.
func TestRunAllFastForwardLapped(t *testing.T) {
	for _, durs := range [][]int64{{64}, {65}, {200}, {1000, 130}} {
		s := New(Config{Policy: PolicyShared}, computeNodes(2, 8, 1<<20), 0)
		for _, d := range durs {
			if _, err := s.Submit(cred(1000), spec(2, d)); err != nil {
				t.Fatal(err)
			}
		}
		longest := slices.Max(durs)
		if got, want := s.RunAll(100000), int(1+longest); got != want {
			t.Fatalf("durations %v: RunAll = %d ticks, want %d", durs, got, want)
		}
		// One Step starts the jobs and one finishes each; every other
		// tick is skipped.
		steps, ff := s.Stats()
		if want := int64(1 + len(durs)); steps != want || steps+ff != 1+longest {
			t.Fatalf("durations %v: %d steps + %d skipped, want %d steps of %d ticks", durs, steps, ff, want, 1+longest)
		}
		for _, r := range s.Sacct(ids.RootCred()) {
			if r.State != Completed || r.End != r.Start+durs[r.JobID-1] {
				t.Fatalf("durations %v: job %d ended %v at %d, want completed at %d", durs, r.JobID, r.State, r.End, r.Start+durs[r.JobID-1])
			}
		}
	}
}
