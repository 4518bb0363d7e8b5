package sched

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// privileged reports whether the observer bypasses PrivateData: root
// and members of a coordinator group (Slurm operators).
func (s *Scheduler) privileged(observer ids.Credential) bool {
	if observer.IsRoot() {
		return true
	}
	for _, gid := range s.Cfg.CoordinatorGIDs {
		if observer.InGroup(gid) {
			return true
		}
	}
	return false
}

// Squeue returns the queue as the observer is allowed to see it.
// Without PrivateData (baseline), every job with full detail is
// returned — username, job name, command, working directory — the
// information-leak surface the paper highlights (§IV-B). With
// PrivateData, foreign jobs are omitted entirely.
func (s *Scheduler) Squeue(observer ids.Credential) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Live jobs come from the pending slice and the calendar's live
	// entries — never from the full job table.
	priv := !s.Cfg.PrivateData || s.privileged(observer)
	out := make([]*Job, 0, len(s.pending)+len(s.calendar))
	for _, j := range s.pending {
		if priv || j.User == observer.UID {
			out = append(out, j.Clone())
		}
	}
	for _, e := range s.calendar {
		if j := e.job; j.State == Running && (priv || j.User == observer.UID) {
			out = append(out, j.Clone())
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// JobView returns one job as seen by the observer. Under PrivateData,
// foreign jobs return ErrNoSuchJob — existence is not even confirmed,
// mirroring hidepid=2's ENOENT behaviour.
func (s *Scheduler) JobView(observer ids.Credential, jobID int) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookup(jobID)
	if err != nil {
		return nil, err
	}
	if s.Cfg.PrivateData && !s.privileged(observer) && j.User != observer.UID {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, jobID)
	}
	return j.Clone(), nil
}

// Sacct returns accounting records visible to the observer. Baseline:
// "job reports of any and all other users on the system with the
// submission of a single scheduler command" (paper §IV-B). With
// PrivateData: own records only.
func (s *Scheduler) Sacct(observer ids.Credential) []AccountingRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []AccountingRecord
	for _, r := range s.records {
		if !s.Cfg.PrivateData || s.privileged(observer) || r.User == observer.UID {
			rc := r
			rc.NodeList = append([]string(nil), r.NodeList...)
			out = append(out, rc)
		}
	}
	return out
}

// Sinfo summarizes node load. Under PrivateData, per-user attribution
// is stripped for unprivileged observers; they see only their own
// occupancy.
type NodeInfo struct {
	Name      string
	Cores     int
	UsedCores int
	OwnCores  int // cores used by the observer's own jobs
	Users     int // distinct users; -1 when hidden by PrivateData
}

// Sinfo returns per-node occupancy as visible to the observer.
func (s *Scheduler) Sinfo(observer ids.Credential) []NodeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []NodeInfo
	for _, ns := range s.nodes {
		info := NodeInfo{Name: ns.node.Name, Cores: ns.node.Cores, UsedCores: ns.usedCores}
		for _, j := range ns.jobs {
			if j.User == observer.UID {
				info.OwnCores += j.Tasks[ns.node.Name]
			}
		}
		if s.Cfg.PrivateData && !s.privileged(observer) {
			info.Users = -1
			info.UsedCores = info.OwnCores
		} else {
			info.Users = len(ns.users)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
