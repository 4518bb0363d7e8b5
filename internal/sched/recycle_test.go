package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// observed is everything one trial handed to observers.
type observed struct {
	jobs   []*Job // Scheduler.Job
	queue  []*Job // Squeue by root, mid-trial
	sacct  []AccountingRecord
	closed []AccountingRecord // Sacct by a user under PrivateData
}

// deepCopy copies o without sharing any slice with it. It copies
// field by field rather than through Job.Clone, the code under test.
func (o observed) deepCopy() observed {
	jobs := func(js []*Job) []*Job {
		out := make([]*Job, len(js))
		for i, j := range js {
			nj := *j
			nj.Cred.Groups = slices.Clone(j.Cred.Groups)
			nj.Nodes = slices.Clone(j.Nodes)
			nj.Cores = slices.Clone(j.Cores)
			out[i] = &nj
		}
		return out
	}
	recs := func(rs []AccountingRecord) []AccountingRecord {
		out := slices.Clone(rs)
		for i := range out {
			out[i].NodeList = slices.Clone(rs[i].NodeList)
		}
		return out
	}
	return observed{jobs(o.jobs), jobs(o.queue), recs(o.sacct), recs(o.closed)}
}

// recycleTrial submits users × perUser jobs with trial-specific names,
// commands and credentials, records what observers see mid-drain and
// at the end, and drains the scheduler.
func recycleTrial(t *testing.T, s *Scheduler, trial string, users, perUser, width int) observed {
	t.Helper()
	var o observed
	var jobIDs []int
	for u := 0; u < users; u++ {
		c := cred(ids.UID(2000 + 10*u + len(trial)))
		c.Groups = append(c.Groups, 5000+ids.GID(u))
		for k := 0; k < perUser; k++ {
			id, err := s.Submit(c, JobSpec{
				Name:    fmt.Sprintf("%s-u%d-%d", trial, u, k),
				Command: fmt.Sprintf("%s.out --token=%d", trial, 100*u+k),
				WorkDir: "/home/" + trial,
				Cores:   1 + (u+k)%width,
				MemB:    1,
				// Durations long enough that the mid-drain Squeue
				// sees both running and pending jobs.
				Duration: int64(2 + k%3),
			})
			if err != nil {
				t.Fatal(err)
			}
			jobIDs = append(jobIDs, id)
		}
	}
	s.Step()
	o.queue = s.Squeue(ids.RootCred())
	s.RunAll(10000)
	for _, id := range jobIDs {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		o.jobs = append(o.jobs, j)
	}
	o.sacct = s.Sacct(ids.RootCred())
	o.closed = s.Sacct(o.jobs[0].Cred)
	return o
}

// Every outward surface copies: what one trial handed out survives a
// Reset and a different trial that reuses the scheduler's job and
// placement slabs, byte for byte.
func TestResultsSurviveRecycling(t *testing.T) {
	for _, policy := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		t.Run(policy.String(), func(t *testing.T) {
			s := New(Config{Policy: policy, PrivateData: true}, computeNodes(4, 8, 1<<30), 0)
			first := recycleTrial(t, s, "first", 3, 40, 12)
			if len(first.queue) == 0 {
				t.Fatal("mid-trial Squeue is empty")
			}
			want := first.deepCopy()
			s.Reset()
			checkAggregates(t, s, "after Reset")
			second := recycleTrial(t, s, "second-trial", 4, 50, 20)
			checkAggregates(t, s, "after second trial")
			if !reflect.DeepEqual(first, want) {
				t.Fatal("first trial's results changed when the scheduler was reused")
			}
			if reflect.DeepEqual(first.sacct, second.sacct) {
				t.Fatal("the two trials are indistinguishable: the test proves nothing")
			}
		})
	}
}

// Each job keeps a private copy of its submitter's credential: the
// caller's later writes to its Groups never reach a job, and a
// submission after SwitchGroup carries the new EGID.
func TestSubmitCredentialIsPrivate(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 1<<30), 0)
	c := cred(1000)
	c.Groups = append(c.Groups, 4000)
	first, err := s.Submit(c, spec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Groups[1] = 6666 // the caller reuses its slice
	newgrp, err := s.Submit(c.WithEGID(4000), spec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id     int
		egid   ids.GID
		groups []ids.GID
	}{
		{first, 1000, []ids.GID{1000, 4000}},
		{newgrp, 4000, []ids.GID{1000, 6666}},
	} {
		j, err := s.Job(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Cred.EGID != tc.egid || !slices.Equal(j.Cred.Groups, tc.groups) {
			t.Errorf("job %d credential %v, want egid %d groups %v", tc.id, j.Cred, tc.egid, tc.groups)
		}
	}
}
