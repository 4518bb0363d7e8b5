package sched

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/ids"
)

// FuzzSchedOps decodes bytes into a sequence of scheduler operations —
// submit, cancel, step, a short RunAll (whose fast-forward skips ticks
// only behind a closed queue gate), and a node crash (with the Step
// that notices it) or restore — on a 3-node, 4-core, 2-GPU cluster
// under the policy the first byte picks. One submit in eight runs 63,
// 64, 65 or 1<<30 ticks, so jobs lap the completion wheel. After every
// operation the incremental aggregates, the live indexes and the node
// process tables must match a recomputation from scratch, a closed
// queue gate must hold no job that fits, and the jobs a Step or RunAll
// completed must be the ones checkCompletions derives from start
// times and durations alone, in (due, ID) order. The peak users per
// node must cover every node's distinct users recomputed from its
// jobs, never fall, stay at most 1 under user-wholenode, and read 0
// after the closing Reset.
func FuzzSchedOps(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 1, 9, 2, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 44, 6, 0, 1, 3, 3, 0, 0, 4, 1, 0, 3, 0, 0, 5, 1, 0, 3, 0, 0})
	f.Add([]byte{2, 0, 8, 0, 0, 9, 1, 0, 13, 2, 3, 0, 0, 2, 2, 1, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 255, 1, 4, 16, 0, 1, 0, 3, 0, 0, 3, 0, 0, 4, 2, 0, 5, 2, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 7, 3, 1, 2, 1, 0, 1, 2, 6, 0, 3, 2, 1, 0, 6, 0, 15})
	// Two users' 1-core jobs share a node under the shared policy.
	f.Add([]byte{0, 0, 0, 7, 0, 70, 7, 3, 0, 0, 3, 0, 0})
	// Lapped jobs (64 and 65 ticks, then 63 and 1<<30) beside short
	// ones, drained by RunAll steps that fast-forward to their laps.
	f.Add([]byte{0, 0, 0, 28, 0, 0, 29, 0, 0, 1, 3, 0, 0, 6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15,
		0, 0, 31, 1, 0, 30, 3, 0, 0, 6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15, 2, 3, 0, 6, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pol := []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode}[int(data[0])%3]
		nodes := computeNodes(3, 4, 1<<20)
		s := New(Config{Policy: pol}, nodes, 2)
		submitted, peak := 0, 0
		ops := data[1:]
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		for k := 0; k+3 <= len(ops); k += 3 {
			op, a, b := ops[k]%7, int(ops[k+1]), int(ops[k+2])
			before := snapshotCompletions(s)
			switch op {
			case 0, 1: // submit
				sp := JobSpec{
					Name:     "f",
					Command:  "x",
					Cores:    1 + a%14, // 13 and 14 exceed the cluster
					MemB:     1 + int64(b>>4)<<16,
					Duration: 1 + int64(b%4),
					GPUs:     (a >> 4) % 4, // 3 exceeds a node
				}
				if (b>>2)%4 == 0 {
					sp.ActualMemB = 2 << 20 // more than a node has: OOM
				}
				if (b>>2)%8 == 7 { // a lap or more of the wheel out
					sp.Duration = []int64{63, 64, 65, 1 << 30}[b%4]
				}
				if _, err := s.Submit(cred(ids.UID(1000+(a>>6)%3)), sp); err == nil {
					submitted++
				}
			case 2: // cancel, by the owner or someone else
				_ = s.Cancel(cred(ids.UID(1000+b%4)), a%(submitted+1))
			case 3:
				s.Step()
			case 4: // crash, and the tick that fails the node's jobs
				nodes[a%len(nodes)].Crash()
				s.Step()
			case 5:
				if n := nodes[a%len(nodes)]; n.Down() {
					n.Restore()
				}
			case 6:
				s.RunAll(1 + b%16)
			}
			checkAggregates(t, s, "after op")
			checkIndexes(t, s, "after op")
			checkTaskProcesses(t, s, "after op")
			checkPassComplete(t, s, "after op")
			checkCompletions(t, s, before, "after op")
			peak = checkPeakUsers(t, s, peak, "after op")
		}
		s.Reset()
		if n := s.PeakUsersPerNode(); n != 0 {
			t.Fatalf("peak users per node = %d after Reset", n)
		}
	})
}

// checkPeakUsers checks PeakUsersPerNode against prev, its reading
// before the operation, and against every node's distinct users
// recomputed from the node's jobs; it returns the new reading.
func checkPeakUsers(t *testing.T, s *Scheduler, prev int, when string) int {
	t.Helper()
	peak := s.PeakUsersPerNode()
	if peak < prev {
		t.Fatalf("%s: peak users per node fell from %d to %d", when, prev, peak)
	}
	if s.Cfg.Policy == PolicyUserWholeNode && peak > 1 {
		t.Fatalf("%s: peak users per node = %d under user-wholenode", when, peak)
	}
	for _, ns := range s.nodes {
		var users []ids.UID
		for _, j := range ns.jobs {
			if !slices.Contains(users, j.User) {
				users = append(users, j.User)
			}
		}
		if len(users) > peak {
			t.Fatalf("%s: %s hosts %d users, peak %d", when, ns.node.Name, len(users), peak)
		}
	}
	return peak
}

// completionRef is what checkCompletions compares against: the clock,
// the accounting row count and the job states before an operation.
type completionRef struct {
	now     int64
	records int
	states  []JobState
}

func snapshotCompletions(s *Scheduler) completionRef {
	ref := completionRef{now: s.now, records: len(s.records)}
	for _, j := range s.jobs {
		ref.states = append(ref.states, j.State)
	}
	return ref
}

// checkCompletions recomputes, from start times and durations alone,
// which jobs the operation since ref had to complete: every job that
// was pending or running before it, has started, and is due
// (Start+Duration) in a tick it advanced, unless a crash, an OOM or a
// cancel ended it before that tick. Those, and no others, must be the
// jobs it recorded Completed, at their due tick, in (due, ID) order.
// A job due later must not have completed, and no live job may have
// been past its due tick before the operation.
func checkCompletions(t *testing.T, s *Scheduler, ref completionRef, when string) {
	t.Helper()
	var want []*Job
	for i, st := range ref.states {
		j := s.jobs[i]
		if (st != Pending && st != Running) || j.State == Pending || j.State == Cancelled && j.Start == 0 {
			continue
		}
		d := j.Start + j.Spec.Duration
		switch {
		case d <= ref.now:
			t.Fatalf("%s: job %d was still %v at tick %d, past its due tick %d", when, j.ID, st, ref.now, d)
		case d > s.now:
			if j.State == Completed {
				t.Fatalf("%s: job %d completed at %d, due %d after tick %d", when, j.ID, j.End, d, s.now)
			}
		case j.State == Completed || j.State == Running:
			want = append(want, j)
		case j.End >= d:
			t.Fatalf("%s: job %d due %d ended %v at %d, not completed", when, j.ID, d, j.State, j.End)
		}
	}
	slices.SortFunc(want, func(a, b *Job) int {
		return cmp.Or(cmp.Compare(a.Start+a.Spec.Duration, b.Start+b.Spec.Duration), cmp.Compare(a.ID, b.ID))
	})
	var got []*Job
	for _, j := range s.records[ref.records:] {
		if j.State == Completed {
			got = append(got, j)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: ticks %d..%d completed %v, want %v", when, ref.now+1, s.now, got, want)
	}
	for _, j := range got {
		if j.End != j.Start+j.Spec.Duration {
			t.Fatalf("%s: job %d completed at %d, due %d", when, j.ID, j.End, j.Start+j.Spec.Duration)
		}
	}
}
