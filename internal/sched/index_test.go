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
// jobs in ID order; each Running job is linked exactly once into the
// completion wheel, in bucket (Start+Duration) & wheelMask, and nothing
// else is linked; the wheel's live count is the number of Running
// jobs; each node's jobs are, as a set, the Running jobs placed there,
// and each Running job's tasks index its Nodes; Unfinished
// counts the Pending and Running jobs.
func checkIndexes(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	var pending []*Job
	running := make(map[*Job]bool)
	onNode := make(map[*nodeState][]*Job)
	for i, j := range s.jobs {
		if j.ID != i+1 {
			t.Fatalf("%s: job table slot %d holds job %d", when, i, j.ID)
		}
		switch j.State {
		case Pending:
			pending = append(pending, j)
		case Running:
			running[j] = true
			for k, name := range j.Nodes {
				ns := s.byName[name]
				if ni := j.tasks[k].node; s.nodes[ni] != ns {
					t.Fatalf("%s: job %d node index %d names %s, want %s", when, j.ID, ni, s.nodes[ni].node.Name, name)
				}
				onNode[ns] = append(onNode[ns], j)
			}
		default:
			if j.calPrev != nil || j.calNext != nil {
				t.Fatalf("%s: job %d in state %v still carries wheel links", when, j.ID, j.State)
			}
		}
	}
	if !slices.Equal(s.pending, pending) {
		t.Fatalf("%s: pending = %v, want the Pending jobs %v", when, s.pending, pending)
	}
	if got, want := s.Unfinished(), len(pending)+len(running); got != want {
		t.Fatalf("%s: Unfinished = %d, want the %d Pending and Running jobs", when, got, want)
	}
	if s.calendar.live != len(running) {
		t.Fatalf("%s: wheel live count %d, want the %d Running jobs", when, s.calendar.live, len(running))
	}
	linked := make(map[*Job]bool)
	for b, head := range s.calendar.heads {
		var prev *Job
		for j := head; j != nil; j = j.calNext {
			if !running[j] {
				t.Fatalf("%s: job %d (%v) linked in bucket %d", when, j.ID, j.State, b)
			}
			if linked[j] {
				t.Fatalf("%s: job %d linked twice", when, j.ID)
			}
			if d := j.Start + j.Spec.Duration; int(d&wheelMask) != b {
				t.Fatalf("%s: job %d due %d in bucket %d, want %d", when, j.ID, d, b, d&wheelMask)
			}
			if j.calPrev != prev {
				t.Fatalf("%s: job %d back link broken in bucket %d", when, j.ID, b)
			}
			linked[j] = true
			prev = j
		}
	}
	if len(linked) != len(running) {
		t.Fatalf("%s: %d Running jobs missing from the wheel", when, len(running)-len(linked))
	}
	byID := func(a, b *Job) int { return a.ID - b.ID }
	for _, ns := range s.nodes {
		got := slices.SortedFunc(slices.Values(ns.jobs), byID)
		if want := onNode[ns]; !slices.Equal(got, want) {
			t.Fatalf("%s: node %s jobs = %v, want %v", when, ns.node.Name, got, want)
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
	if len(s.pending) != 0 {
		t.Errorf("queue not drained: %d", len(s.pending))
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
