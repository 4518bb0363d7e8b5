package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

const coordGID ids.GID = 600

func newBusyScheduler(t *testing.T, private bool) (*Scheduler, map[string]int) {
	t.Helper()
	cfg := Config{PrivateData: private, CoordinatorGIDs: []ids.GID{coordGID}}
	s := New(cfg, computeNodes(4, 8, 1000), 0)
	counts := map[string]int{}
	for i := 0; i < 6; i++ {
		uid := ids.UID(1000 + i%3) // three users
		if _, err := s.Submit(cred(uid), JobSpec{
			Name:    "work",
			Command: "analyze /secret/path",
			Cores:   2, MemB: 1, Duration: 10,
		}); err != nil {
			t.Fatal(err)
		}
		counts["all"]++
	}
	s.Step()
	return s, counts
}

func TestSqueueBaselineShowsEverything(t *testing.T) {
	s, _ := newBusyScheduler(t, false)
	jobs := s.Squeue(cred(1000))
	if len(jobs) != 6 {
		t.Fatalf("baseline squeue = %d rows, want 6", len(jobs))
	}
	// Full detail leaks, including foreign commands.
	foreign := 0
	for _, j := range jobs {
		if j.User != 1000 {
			foreign++
			if j.Spec.Command == "" || j.User == ids.NoUID {
				t.Errorf("baseline redacted a foreign job: %+v", j)
			}
		}
	}
	if foreign == 0 {
		t.Fatal("test setup: no foreign jobs")
	}
}

func TestSqueuePrivateDataHidesForeign(t *testing.T) {
	s, _ := newBusyScheduler(t, true)
	jobs := s.Squeue(cred(1000))
	if len(jobs) != 2 {
		t.Fatalf("private squeue = %d rows, want only own 2", len(jobs))
	}
	for _, j := range jobs {
		if j.User != 1000 {
			t.Errorf("private squeue leaked job of uid %d", j.User)
		}
	}
}

func TestSqueuePrivilegedObservers(t *testing.T) {
	s, _ := newBusyScheduler(t, true)
	if got := len(s.Squeue(ids.RootCred())); got != 6 {
		t.Errorf("root squeue = %d, want 6", got)
	}
	coord := cred(4000)
	coord.Groups = append(coord.Groups, coordGID)
	if got := len(s.Squeue(coord)); got != 6 {
		t.Errorf("coordinator squeue = %d, want 6", got)
	}
}

func TestSacctPrivacy(t *testing.T) {
	s, _ := newBusyScheduler(t, true)
	s.RunAll(50)
	own := s.Sacct(cred(1000))
	if len(own) != 2 {
		t.Errorf("private sacct = %d rows, want 2", len(own))
	}
	all := s.Sacct(ids.RootCred())
	if len(all) != 6 {
		t.Errorf("root sacct = %d rows, want 6", len(all))
	}
	// Baseline: everyone gets everything.
	s2, _ := newBusyScheduler(t, false)
	s2.RunAll(50)
	if got := len(s2.Sacct(cred(1000))); got != 6 {
		t.Errorf("baseline sacct = %d rows, want 6", got)
	}
}

func TestSinfoAttributionHidden(t *testing.T) {
	s, _ := newBusyScheduler(t, true)
	for _, info := range s.Sinfo(cred(1000)) {
		if info.Users != -1 {
			t.Errorf("node %s: user attribution leaked (%d)", info.Name, info.Users)
		}
		if info.UsedCores != info.OwnCores {
			t.Errorf("node %s: foreign occupancy leaked (%d vs own %d)", info.Name, info.UsedCores, info.OwnCores)
		}
	}
	// Root sees attribution.
	sawUsers := false
	for _, info := range s.Sinfo(ids.RootCred()) {
		if info.Users > 0 {
			sawUsers = true
		}
	}
	if !sawUsers {
		t.Errorf("root sinfo shows no users")
	}
}

// Property: under PrivateData, for any observer uid, every squeue row
// belongs to that uid, and the row count equals the unfiltered count
// restricted to that uid.
func TestQuickPrivateDataExactness(t *testing.T) {
	f := func(seed uint8) bool {
		s := New(Config{PrivateData: true}, computeNodes(3, 8, 1000), 0)
		users := []ids.UID{1000, 1001, 1002}
		perUser := make(map[ids.UID]int)
		n := int(seed%12) + 1
		for i := 0; i < n; i++ {
			uid := users[(int(seed)+i)%3]
			if _, err := s.Submit(cred(uid), JobSpec{Name: "j", Command: "c", Cores: 1, MemB: 1, Duration: 5}); err != nil {
				return false
			}
			perUser[uid]++
		}
		s.Step()
		for _, uid := range users {
			rows := s.Squeue(cred(uid))
			if len(rows) != perUser[uid] {
				return false
			}
			for _, j := range rows {
				if j.User != uid {
					return false
				}
			}
		}
		return len(s.Squeue(ids.RootCred())) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: under PolicyUserWholeNode, PeakUsersPerNode never exceeds
// 1 regardless of the workload mix, and reads 1 once any job ran.
func TestQuickWholeNodeInvariant(t *testing.T) {
	f := func(seed uint8, steps uint8) bool {
		s := New(Config{Policy: PolicyUserWholeNode}, computeNodes(4, 4, 1000), 0)
		users := []ids.UID{1000, 1001, 1002, 1003}
		for i := 0; i < int(seed%20)+4; i++ {
			uid := users[(int(seed)*7+i)%4]
			cores := 1 + (i % 4)
			dur := int64(1 + (i % 5))
			if _, err := s.Submit(cred(uid), JobSpec{Name: "w", Command: "c", Cores: cores, MemB: 1, Duration: dur}); err != nil {
				return false
			}
		}
		s.RunAll(int(steps%10) + 1)
		return s.PeakUsersPerNode() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
