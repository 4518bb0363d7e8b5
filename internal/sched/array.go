package sched

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ids"
)

// Job arrays and per-user QoS limits: the control-plane features the
// paper's workload story leans on. Parameter sweeps and Monte Carlo
// campaigns arrive as `sbatch --array=0-N` submissions [25], and a
// scheduler serving thousands of users needs per-user queue limits so
// one sweep cannot starve everyone else.

// ErrUserLimit is returned when a submission would exceed the
// per-user active-job limit.
var ErrUserLimit = errors.New("sched: per-user job limit reached")

// SetUserLimit caps the number of active (pending+running) jobs a
// single user may have; 0 removes the cap.
func (s *Scheduler) SetUserLimit(limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.userLimit = limit
	s.gen++
}

// checkUserLimitLocked validates a submission of extra jobs against
// the cap, in O(1) from the per-user active counter — so submitting a
// 10k-task array stays linear in the array size. Caller holds s.mu.
func (s *Scheduler) checkUserLimitLocked(uid ids.UID, extra int) error {
	if s.userLimit <= 0 || uid == ids.Root {
		return nil
	}
	if s.activeByUser[uid]+extra > s.userLimit {
		return fmt.Errorf("%w: uid %d limit %d", ErrUserLimit, uid, s.userLimit)
	}
	return nil
}

// SubmitArray submits an sbatch-style job array: count tasks sharing
// one array ID, each with "--task=<index>" appended to the command
// and "[i]" to the name. The whole array is admitted or rejected
// atomically against the user limit.
func (s *Scheduler) SubmitArray(cred ids.Credential, spec JobSpec, count int) ([]*Job, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: array count %d", ErrBadSpec, count)
	}
	s.mu.Lock()
	if err := s.checkUserLimitLocked(cred.UID, count); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	arrayID := s.nextArray
	s.nextArray++
	s.gen++
	s.mu.Unlock()

	jobs := make([]*Job, 0, count)
	for i := 0; i < count; i++ {
		ts := spec
		ts.Name = fmt.Sprintf("%s[%d]", spec.Name, i)
		sep := " "
		if strings.TrimSpace(ts.Command) == "" {
			sep = ""
		}
		ts.Command = fmt.Sprintf("%s%s--task=%d", spec.Command, sep, i)
		j, err := s.Submit(cred, ts)
		if err != nil {
			// Roll back what we already queued to keep the array
			// all-or-nothing.
			for _, q := range jobs {
				_ = s.Cancel(cred, q.ID)
			}
			return nil, err
		}
		s.mu.Lock()
		if tj, err := s.lookup(j.ID); err == nil {
			tj.ArrayID, tj.ArrayIndex = arrayID, i
		}
		j.ArrayID, j.ArrayIndex = arrayID, i
		s.mu.Unlock()
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// CancelArray cancels every live task of an array owned by actor, in
// job-ID order. Returns how many tasks were cancelled.
func (s *Scheduler) CancelArray(actor ids.Credential, arrayID int) (int, error) {
	s.mu.Lock()
	var victims []int
	for _, j := range s.jobs {
		if j.ArrayID == arrayID && (j.State == Pending || j.State == Running) {
			victims = append(victims, j.ID)
		}
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return 0, fmt.Errorf("%w: array %d", ErrNoSuchJob, arrayID)
	}
	n := 0
	for _, id := range victims {
		if err := s.Cancel(actor, id); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ArrayState summarizes an array's tasks by state, as the observer is
// allowed to see them (PrivateData applies).
func (s *Scheduler) ArrayState(observer ids.Credential, arrayID int) map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[JobState]int)
	for _, j := range s.jobs {
		if j.ArrayID != arrayID {
			continue
		}
		if s.Cfg.PrivateData && !s.privileged(observer) && j.User != observer.UID {
			continue
		}
		out[j.State]++
	}
	return out
}
