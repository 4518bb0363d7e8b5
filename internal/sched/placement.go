package sched

import (
	"slices"

	"repro/internal/ids"
)

// This file holds the event-driven placement engine's capacity
// aggregates. The per-tick hot path of a draining campaign is
// dominated by *failed* placement attempts: every pending job used to
// walk every node every tick, allocating a placement map each time.
// The engine replaces that with
//
//   - capScope: running totals over the compute nodes (free cores,
//     empty-node capacity, per-user whole-node capacity, GPU
//     availability) that let fit reject an unplaceable job in O(1)
//     without touching a single node — and let Step skip the whole
//     queue scan when the cluster is full, or end it once a start
//     fills the cluster;
//   - placeScratch: reusable slice-based placement (node index +
//     cores) so the scan phase allocates nothing, successful or not;
//   - applyPlace/applyRelease: the single mutation path for node
//     allocations, keeping every aggregate — including the OOM-armed
//     node count that gates the fault-injection scan — incremental.
//
// Aggregates are conservative, never optimistic: they may admit a job
// the scan then fails to place (down nodes and per-node memory are
// only checked by the scan), but a probe rejection is always final.

// capScope aggregates capacity over the cluster's compute nodes (its
// members); every allocation change on a member updates it. The
// scheduler keeps exactly one, s.defaultScope.
type capScope struct {
	// freeCores is the total unallocated cores over member nodes —
	// the shared-policy feasibility bound, and the "is the cluster
	// completely full" fast path for Step.
	freeCores int64
	// emptyNodes / emptyCores count member nodes with no allocations
	// and their total cores — the exclusive-policy bound.
	emptyNodes int
	emptyCores int64
	// userFree sums free cores on nodes whose allocations all belong
	// to one user, one unordered entry per such user: together with
	// emptyCores it bounds what a user-wholenode job can ever get.
	// An entry is removed at zero, so each one stands for at least one
	// member node and the slice, sized to the member count at
	// construction, never grows.
	userFree []userCap
	// maxNodeMemB is the largest per-node memory among members
	// (static): a job asking more per node can never run here.
	maxNodeMemB int64
	// gpuAtLeast[g] counts member nodes with at least g free GPUs
	// (index 0 unused); nil when the cluster exposes no GPUs. A job
	// needs its per-node GPU request satisfiable on at least one node.
	gpuAtLeast []int32
}

// userCap is one user's userFree entry.
type userCap struct {
	uid  ids.UID
	free int64
}

// newCapScope returns an empty scope for up to members compute nodes.
func newCapScope(members, maxGPUs int) *capScope {
	sc := &capScope{userFree: make([]userCap, 0, members)}
	if maxGPUs > 0 {
		sc.gpuAtLeast = make([]int32, maxGPUs+1)
	}
	return sc
}

// reset empties the scope in place (keeping its allocations) so it can
// be re-enrolled from scratch — the Scheduler.Reset path.
func (sc *capScope) reset() {
	sc.freeCores = 0
	sc.emptyNodes = 0
	sc.emptyCores = 0
	sc.userFree = sc.userFree[:0]
	sc.maxNodeMemB = 0
	for i := range sc.gpuAtLeast {
		sc.gpuAtLeast[i] = 0
	}
}

// enroll adds a member node's static quantities and current
// contribution to the scope.
func (sc *capScope) enroll(ns *nodeState) {
	if ns.node.MemB > sc.maxNodeMemB {
		sc.maxNodeMemB = ns.node.MemB
	}
	sc.move(nodeShare{}, ns.share())
}

// nodeShare is one member node's contribution to the scope. userFree
// is the sole user's free cores, zero without a sole user.
type nodeShare struct {
	free, emptyCores, userFree int64
	emptyNodes, gpus           int
	user                       ids.UID
}

func (ns *nodeState) share() nodeShare {
	sh := nodeShare{free: int64(ns.freeCores()), gpus: ns.freeGPUs()}
	if len(ns.jobs) == 0 {
		sh.emptyNodes, sh.emptyCores = 1, int64(ns.node.Cores)
	} else if u, ok := ns.sole(); ok {
		sh.user, sh.userFree = u, sh.free
	}
	return sh
}

// move replaces a node's contribution old by new. Every mutation of a
// node's allocations takes its share before and moves it after.
func (sc *capScope) move(old, new nodeShare) {
	sc.freeCores += new.free - old.free
	sc.emptyNodes += new.emptyNodes - old.emptyNodes
	sc.emptyCores += new.emptyCores - old.emptyCores
	if old.user == new.user {
		sc.addUserFree(new.user, new.userFree-old.userFree)
	} else {
		sc.addUserFree(old.user, -old.userFree)
		sc.addUserFree(new.user, new.userFree)
	}
	if sc.gpuAtLeast != nil {
		for g := new.gpus; g > old.gpus; g-- {
			sc.gpuAtLeast[g]++
		}
		for g := old.gpus; g > new.gpus; g-- {
			sc.gpuAtLeast[g]--
		}
	}
}

// addUserFree adds d to u's userFree entry, creating the entry or
// swapping the last one into its place when it reaches zero.
func (sc *capScope) addUserFree(u ids.UID, d int64) {
	if d == 0 {
		return
	}
	for i := range sc.userFree {
		e := &sc.userFree[i]
		if e.uid != u {
			continue
		}
		if e.free += d; e.free == 0 {
			last := len(sc.userFree) - 1
			sc.userFree[i] = sc.userFree[last]
			sc.userFree = sc.userFree[:last]
		}
		return
	}
	sc.userFree = append(sc.userFree, userCap{uid: u, free: d})
}

// userFreeOf returns u's userFree sum (0 without an entry).
func (sc *capScope) userFreeOf(u ids.UID) int64 {
	for _, e := range sc.userFree {
		if e.uid == u {
			return e.free
		}
	}
	return 0
}

// sole returns the single user allocated on the node, if exactly one.
func (ns *nodeState) sole() (ids.UID, bool) {
	if len(ns.users) != 1 {
		return ids.NoUID, false
	}
	return ns.users[0].uid, true
}

// oomArmed reports whether the next fault-injection pass would crash
// this node: some job exceeds physical memory outright, or the
// committed memory (max of request and actual per job) oversubscribes
// it. Both inputs are maintained incrementally in applyPlace/Release.
func (ns *nodeState) oomArmed() bool {
	return ns.overCount > 0 || ns.memCommit > ns.node.MemB
}

// effMemB is the memory a job pins on each of its nodes: its request,
// or its actual usage when it misbehaves beyond it.
func effMemB(j *Job) int64 {
	m := j.Spec.MemB
	if j.Spec.ActualMemB > m {
		m = j.Spec.ActualMemB
	}
	return m
}

// probe is the O(1) feasibility test of job j against the capacity
// scope under the configured sharing policy: a false return proves no
// placement scan could succeed now, so callers skip the scan (and its
// node walk) entirely. A true return promises nothing — the scan still
// applies per-node memory, GPU and down-node constraints.
func (s *Scheduler) probe(j *Job) bool {
	sc := s.defaultScope
	need := int64(j.Spec.Cores)
	switch s.Cfg.Policy {
	case PolicyShared:
		if need > sc.freeCores {
			return false
		}
	case PolicyExclusive:
		if need > sc.emptyCores {
			return false
		}
	case PolicyUserWholeNode:
		if need > sc.emptyCores+sc.userFreeOf(j.User) {
			return false
		}
	default:
		return false
	}
	if j.Spec.MemB > sc.maxNodeMemB {
		return false
	}
	if g := j.Spec.GPUs; g > 0 {
		if sc.gpuAtLeast == nil || g >= len(sc.gpuAtLeast) || sc.gpuAtLeast[g] == 0 {
			return false
		}
	}
	return true
}

// placeScratch is the reusable placement buffer fit writes into:
// parallel slices of node index (into s.nodes) and cores taken there.
// Failed attempts leave nothing behind; successful ones are
// materialized into the job by tryStart. One per scheduler.
type placeScratch struct {
	nodes []int
	cores []int
}

func (ps *placeScratch) reset() {
	ps.nodes = ps.nodes[:0]
	ps.cores = ps.cores[:0]
}

// applyPlace records a job's allocation on one compute node, updating
// the node, the capacity scope, the peak users per node and the
// cluster's OOM-armed count.
func (s *Scheduler) applyPlace(ns *nodeState, j *Job, cores int) {
	before, wasArmed := ns.share(), ns.oomArmed()
	ns.usedCores += cores
	ns.usedMem += j.Spec.MemB
	ns.usedGPUs += j.Spec.GPUs
	ns.jobs = append(ns.jobs, j)
	ns.addUser(j.User)
	s.peakUsers = max(s.peakUsers, len(ns.users))
	ns.memCommit += effMemB(j)
	if j.Spec.ActualMemB > ns.node.MemB {
		ns.overCount++
	}
	if ns.oomArmed() != wasArmed {
		s.armedNodes++
	}
	s.defaultScope.move(before, ns.share())
}

// applyRelease undoes applyPlace for one node of a finishing job; the
// node's last job takes the released one's place.
func (s *Scheduler) applyRelease(ns *nodeState, j *Job, cores int) {
	before, wasArmed := ns.share(), ns.oomArmed()
	ns.usedCores -= cores
	ns.usedMem -= j.Spec.MemB
	ns.usedGPUs -= j.Spec.GPUs
	last := len(ns.jobs) - 1
	ns.jobs[slices.Index(ns.jobs, j)] = ns.jobs[last]
	ns.jobs[last] = nil
	ns.jobs = ns.jobs[:last]
	ns.delUser(j.User)
	ns.memCommit -= effMemB(j)
	if j.Spec.ActualMemB > ns.node.MemB {
		ns.overCount--
	}
	if ns.oomArmed() != wasArmed {
		s.armedNodes--
	}
	s.defaultScope.move(before, ns.share())
}
