package sched

import (
	"slices"
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
// PrivateData, foreign jobs are omitted entirely. The jobs are copies,
// in ID order.
func (s *Scheduler) Squeue(observer ids.Credential) []*Job {
	out := make([]*Job, 0, s.Unfinished())
	s.VisitQueue(observer, func(j *Job) { out = append(out, j.Clone()) })
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// VisitQueue calls visit on each job Squeue would return, in no fixed
// order and without copying: visit must neither keep nor modify the
// job, nor call back into the scheduler. It walks the live jobs only,
// the pending slice and the completion wheel's lists, never the full
// job table.
func (s *Scheduler) VisitQueue(observer ids.Credential, visit func(*Job)) {
	priv := !s.Cfg.PrivateData || s.privileged(observer)
	for _, j := range s.pending {
		if priv || j.User == observer.UID {
			visit(j)
		}
	}
	for _, j := range s.calendar.heads {
		for ; j != nil; j = j.calNext {
			if priv || j.User == observer.UID {
				visit(j)
			}
		}
	}
}

// Unfinished counts the jobs still pending or running: the jobs
// root's Squeue returns, counted without copying them.
func (s *Scheduler) Unfinished() int {
	return len(s.pending) + s.calendar.live
}

// Sacct returns accounting records visible to the observer. Baseline:
// "job reports of any and all other users on the system with the
// submission of a single scheduler command" (paper §IV-B). With
// PrivateData: own records only. The rows are built from the finished
// jobs, in finish order.
func (s *Scheduler) Sacct(observer ids.Credential) []AccountingRecord {
	var out []AccountingRecord
	for _, j := range s.records {
		if !s.Cfg.PrivateData || s.privileged(observer) || j.User == observer.UID {
			var ct int64
			if j.Start > 0 {
				ct = int64(j.Spec.Cores) * (j.End - j.Start)
			}
			out = append(out, AccountingRecord{
				JobID: j.ID, User: j.User, Name: j.Spec.Name, State: j.State,
				Submit: j.Submit, Start: j.Start, End: j.End,
				CoreTicks: ct, NodeList: append([]string(nil), j.Nodes...),
			})
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
	var out []NodeInfo
	for _, ns := range s.nodes {
		info := NodeInfo{Name: ns.node.Name, Cores: ns.node.Cores, UsedCores: ns.usedCores}
		for _, j := range ns.jobs {
			if j.User == observer.UID {
				i, _ := slices.BinarySearch(j.Nodes, ns.node.Name)
				info.OwnCores += j.Cores[i]
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
