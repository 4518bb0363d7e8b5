package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestSubmitArrayBasics(t *testing.T) {
	s := New(Config{}, computeNodes(4, 8, 1000), 0)
	jobs, err := s.SubmitArray(cred(1000), JobSpec{Name: "sweep", Command: "sim --p=3", Cores: 1, MemB: 1, Duration: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 10 {
		t.Fatalf("array tasks = %d", len(jobs))
	}
	first, _ := s.Job(jobs[0])
	arrayID := first.ArrayID
	if arrayID == 0 {
		t.Fatalf("array id not assigned")
	}
	for i, id := range jobs {
		j, _ := s.Job(id)
		if j.ArrayID != arrayID || j.ArrayIndex != i {
			t.Errorf("task %d: array=%d index=%d", i, j.ArrayID, j.ArrayIndex)
		}
		if !strings.Contains(j.Spec.Name, "[") {
			t.Errorf("task name %q missing index", j.Spec.Name)
		}
		if !strings.Contains(j.Spec.Command, "--task=") {
			t.Errorf("task command %q missing task arg", j.Spec.Command)
		}
	}
	s.RunAll(100)
	states := s.ArrayState(cred(1000), arrayID)
	if states[Completed] != 10 {
		t.Errorf("array states = %v", states)
	}
}

func TestSubmitArrayValidation(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 1000), 0)
	if _, err := s.SubmitArray(cred(1000), spec(1, 1), 0); !errors.Is(err, ErrBadSpec) {
		t.Errorf("count 0 err = %v", err)
	}
	// An array whose tasks can never fit rolls back atomically.
	if _, err := s.SubmitArray(cred(1000), spec(99, 1), 3); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("oversized array err = %v", err)
	}
	if got := len(s.Squeue(ids.RootCred())); got != 0 {
		t.Errorf("queue after failed array = %d", got)
	}
}

func TestCancelArray(t *testing.T) {
	s := New(Config{}, computeNodes(2, 4, 1000), 0)
	jobs, err := s.SubmitArray(cred(1000), spec(1, 50), 6)
	if err != nil {
		t.Fatal(err)
	}
	s.Step() // some start
	first, _ := s.Job(jobs[0])
	arrayID := first.ArrayID
	// Stranger cannot cancel.
	if _, err := s.CancelArray(cred(2000), arrayID); err == nil {
		t.Errorf("stranger cancelled array")
	}
	n, err := s.CancelArray(cred(1000), arrayID)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("cancelled %d tasks", n)
	}
	states := s.ArrayState(cred(1000), arrayID)
	if states[Pending] != 0 || states[Running] != 0 {
		t.Errorf("live tasks after CancelArray: %v", states)
	}
	if _, err := s.CancelArray(cred(1000), arrayID); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("re-cancel err = %v", err)
	}

	// Tasks are cancelled in job-ID order, so the Sacct rows (and the
	// epilog calls) come out identically on every run.
	for run := 0; run < 10; run++ {
		s := New(Config{}, computeNodes(2, 4, 1000), 0)
		jobs, err := s.SubmitArray(cred(1000), spec(1, 50), 24)
		if err != nil {
			t.Fatal(err)
		}
		s.Step() // 8 tasks start, 16 stay pending
		first, _ := s.Job(jobs[0])
		if _, err := s.CancelArray(cred(1000), first.ArrayID); err != nil {
			t.Fatal(err)
		}
		recs := s.Sacct(ids.RootCred())
		for i := 1; i < len(recs); i++ {
			if recs[i-1].JobID >= recs[i].JobID {
				t.Fatalf("run %d: Sacct job IDs not ascending: %d before %d", run, recs[i-1].JobID, recs[i].JobID)
			}
		}
	}
}

func TestUserLimitEnforced(t *testing.T) {
	s := New(Config{}, computeNodes(4, 8, 1000), 0)
	s.SetUserLimit(5)
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(cred(1000), spec(1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(cred(1000), spec(1, 10)); !errors.Is(err, ErrUserLimit) {
		t.Errorf("6th submit err = %v", err)
	}
	// Other users are unaffected; root is exempt.
	if _, err := s.Submit(cred(2000), spec(1, 10)); err != nil {
		t.Errorf("other user submit: %v", err)
	}
	if _, err := s.Submit(ids.RootCred(), spec(1, 10)); err != nil {
		t.Errorf("root submit: %v", err)
	}
	// Arrays count atomically against the limit.
	if _, err := s.SubmitArray(cred(2000), spec(1, 10), 5); !errors.Is(err, ErrUserLimit) {
		t.Errorf("array over limit err = %v", err)
	}
	// Finishing jobs frees headroom.
	s.RunAll(100)
	if _, err := s.Submit(cred(1000), spec(1, 1)); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
	// Removing the cap lifts it.
	s.SetUserLimit(0)
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(cred(1000), spec(1, 1)); err != nil {
			t.Fatalf("uncapped submit: %v", err)
		}
	}
}

func TestArrayStatePrivacy(t *testing.T) {
	s := New(Config{PrivateData: true}, computeNodes(4, 8, 1000), 0)
	jobs, err := s.SubmitArray(cred(1000), spec(1, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := s.Job(jobs[0])
	arrayID := first.ArrayID
	// The owner sees counts; a stranger sees an empty map.
	if got := s.ArrayState(cred(1000), arrayID); got[Pending]+got[Running] != 4 {
		t.Errorf("owner array state = %v", got)
	}
	if got := s.ArrayState(cred(2000), arrayID); len(got) != 0 {
		t.Errorf("stranger array state = %v", got)
	}
	if got := s.ArrayState(ids.RootCred(), arrayID); got[Pending]+got[Running] != 4 {
		t.Errorf("root array state = %v", got)
	}
}
