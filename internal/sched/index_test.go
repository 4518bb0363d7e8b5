package sched

import (
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/simos"
)

func indexCluster(t *testing.T) *Scheduler {
	t.Helper()
	nodes := []*simos.Node{
		simos.NewNode("c1", simos.Compute, 8, 1<<30, nil),
		simos.NewNode("c2", simos.Compute, 8, 1<<30, nil),
	}
	return New(Config{}, nodes, 0)
}

func idxCred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

// checkIndexes recomputes every live index from the job table and
// asserts the scheduler's copy matches: pending is exactly the Pending
// jobs in ID order; the calendar's live entries are exactly the
// Running jobs, each once and due at Start+Duration; each node's jobs
// are ID-sorted and are the Running jobs placed there; Unfinished
// counts the Pending and Running jobs.
func checkIndexes(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	var pending []*Job
	due := make(map[*Job]int64)
	onNode := make(map[*nodeState][]*Job)
	for i, j := range s.jobs {
		if j.ID != i+1 {
			t.Fatalf("%s: job table slot %d holds job %d", when, i, j.ID)
		}
		switch j.State {
		case Pending:
			pending = append(pending, j)
		case Running:
			due[j] = j.Start + j.Spec.Duration
			for _, name := range j.Nodes {
				onNode[s.byName[name]] = append(onNode[s.byName[name]], j)
			}
		}
	}
	if !slices.Equal(s.pending, pending) {
		t.Fatalf("%s: pending = %v, want the Pending jobs %v", when, s.pending, pending)
	}
	if got, want := s.Unfinished(), len(pending)+len(due); got != want {
		t.Fatalf("%s: Unfinished = %d, want the %d Pending and Running jobs", when, got, want)
	}
	for _, e := range s.calendar {
		if e.job.State != Running {
			continue // stale: deleted lazily
		}
		want, ok := due[e.job]
		if !ok {
			t.Fatalf("%s: job %d twice in the calendar", when, e.job.ID)
		}
		if e.due != want {
			t.Fatalf("%s: job %d due %d, want Start+Duration %d", when, e.job.ID, e.due, want)
		}
		delete(due, e.job)
	}
	if len(due) != 0 {
		t.Fatalf("%s: %d Running jobs missing from the calendar", when, len(due))
	}
	for _, ns := range s.nodes {
		if !slices.Equal(ns.jobs, onNode[ns]) {
			t.Fatalf("%s: node %s jobs = %v, want %v", when, ns.node.Name, ns.jobs, onNode[ns])
		}
	}
}

// TestRunningIndexConsistency drives a mixed submit/cancel/run
// lifecycle and checks the live indexes always agree with the
// authoritative job states.
func TestRunningIndexConsistency(t *testing.T) {
	s := indexCluster(t)
	alice, bob := idxCred(1000), idxCred(2000)

	var jobs []int
	for i := 0; i < 6; i++ {
		cred := alice
		if i%2 == 1 {
			cred = bob
		}
		j, err := s.Submit(cred, JobSpec{Name: "j", Command: "x", Cores: 4, MemB: 1, Duration: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	checkIndexes(t, s, "after submits")

	// Cancel a pending job from the middle of the queue: the removal
	// must leave the rest intact and in order.
	if err := s.Cancel(bob, jobs[3]); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, s, "after pending cancel")

	s.Step()
	checkIndexes(t, s, "after first step")
	if err := s.Cancel(alice, jobs[0]); err != nil { // running cancel
		t.Fatal(err)
	}
	checkIndexes(t, s, "after running cancel")

	s.RunAll(100)
	checkIndexes(t, s, "after drain")
	if s.PendingCount() != 0 {
		t.Errorf("queue not drained: %d", s.PendingCount())
	}
}

// TestSqueueMatchesJobStates: the index-backed Squeue must return
// exactly the pending+running jobs, ID-sorted, as the scan did.
func TestSqueueMatchesJobStates(t *testing.T) {
	s := indexCluster(t)
	alice := idxCred(1000)
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(alice, JobSpec{Name: "j", Command: "x", Cores: 8, MemB: 1, Duration: 3}); err != nil {
			t.Fatal(err)
		}
	}
	s.Step() // two start (2×8 cores), three stay pending
	got := s.Squeue(alice)
	if len(got) != 5 {
		t.Fatalf("Squeue len = %d, want 5", len(got))
	}
	for i, j := range got {
		if i > 0 && got[i-1].ID >= j.ID {
			t.Errorf("Squeue not ID-sorted")
		}
		if j.State != Pending && j.State != Running {
			t.Errorf("Squeue returned job %d in state %v", j.ID, j.State)
		}
	}
	s.RunAll(100)
	if n := len(s.Squeue(alice)); n != 0 {
		t.Errorf("Squeue after drain = %d, want 0", n)
	}
}
