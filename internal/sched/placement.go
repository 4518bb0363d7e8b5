package sched

import (
	"slices"

	"repro/internal/ids"
	"repro/internal/simos"
)

// This file holds the event-driven placement engine's capacity
// aggregates. The per-tick hot path of a draining campaign is
// dominated by *failed* placement attempts: every pending job used to
// walk every node every tick, allocating a placement map each time.
// The engine replaces that with
//
//   - capScope: per-partition running totals (free cores, empty-node
//     capacity, per-user whole-node capacity, GPU availability) that
//     let fit reject an unplaceable job in O(1) without touching a
//     single node — and let Step skip the whole queue scan when the
//     cluster is full;
//   - placeScratch: reusable slice-based placement (node index +
//     cores) so the scan phase allocates nothing, successful or not;
//   - applyPlace/applyRelease: the single mutation path for node
//     allocations, keeping every aggregate — including the OOM-armed
//     node count that gates the fault-injection scan — incremental.
//
// Aggregates are conservative, never optimistic: they may admit a job
// the scan then fails to place (down nodes and per-node memory are
// only checked by the scan), but a probe rejection is always final.

// capScope aggregates capacity over one set of compute nodes: the
// whole cluster (the default scope) or one partition. A node belongs
// to every scope whose member set contains it, and contributes to all
// of them on each allocation change.
type capScope struct {
	// freeCores is the total unallocated cores over member nodes —
	// the shared-policy feasibility bound, and (on the default scope)
	// the "is the cluster completely full" fast path for Step.
	freeCores int64
	// emptyNodes / emptyCores count member nodes with no allocations
	// and their total cores — the exclusive-policy bound.
	emptyNodes int
	emptyCores int64
	// userFree sums free cores on nodes whose allocations all belong
	// to one user, keyed by that user: together with emptyCores it
	// bounds what a user-wholenode job can ever get. Entries are
	// removed at zero.
	userFree map[ids.UID]int64
	// maxNodeMemB is the largest per-node memory among members
	// (static): a job asking more per node can never run here.
	maxNodeMemB int64
	// gpuAtLeast[g] counts member nodes with at least g free GPUs
	// (index 0 unused); nil when the cluster exposes no GPUs. A job
	// needs its per-node GPU request satisfiable on at least one node.
	gpuAtLeast []int32
}

func newCapScope(maxGPUs int) *capScope {
	sc := &capScope{userFree: make(map[ids.UID]int64)}
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
	clear(sc.userFree)
	sc.maxNodeMemB = 0
	for i := range sc.gpuAtLeast {
		sc.gpuAtLeast[i] = 0
	}
}

// enroll adds a member node's static quantities and current
// contribution to the scope. Caller holds s.mu.
func (sc *capScope) enroll(ns *nodeState) {
	if ns.node.MemB > sc.maxNodeMemB {
		sc.maxNodeMemB = ns.node.MemB
	}
	sc.account(ns, +1)
}

// account adds (sign=+1) or removes (sign=-1) a node's current
// contribution. Every mutation of a node's allocations is bracketed
// by account(-1) / mutate / account(+1) on each containing scope.
func (sc *capScope) account(ns *nodeState, sign int64) {
	free := int64(ns.freeCores())
	sc.freeCores += sign * free
	if len(ns.jobs) == 0 {
		sc.emptyNodes += int(sign)
		sc.emptyCores += sign * int64(ns.node.Cores)
	} else if u, ok := ns.sole(); ok {
		if v := sc.userFree[u] + sign*free; v != 0 {
			sc.userFree[u] = v
		} else {
			delete(sc.userFree, u)
		}
	}
	if sc.gpuAtLeast != nil {
		for g := ns.freeGPUs(); g >= 1; g-- {
			sc.gpuAtLeast[g] += int32(sign)
		}
	}
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

// scopeFor returns the aggregate scope placement draws from. Caller
// holds s.mu.
func (s *Scheduler) scopeFor(part *Partition) *capScope {
	if part != nil && part.scope != nil {
		return part.scope
	}
	return s.defaultScope
}

// probe is the O(1) feasibility test against the scope aggregates: a
// false return proves no placement scan could succeed now, so callers
// skip the scan (and its node walk) entirely. A true return promises
// nothing — the scan still applies per-node memory, GPU, partition
// and down-node constraints.
func (s *Scheduler) probe(j *Job, sc *capScope, policy SharingPolicy) bool {
	need := int64(j.Spec.Cores)
	switch policy {
	case PolicyShared:
		if need > sc.freeCores {
			return false
		}
	case PolicyExclusive:
		if need > sc.emptyCores {
			return false
		}
	case PolicyUserWholeNode:
		if need > sc.emptyCores+sc.userFree[j.User] {
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
// materialized into the job by tryStart. One per scheduler, guarded
// by s.mu like everything else on the hot path.
type placeScratch struct {
	nodes []int
	cores []int
}

func (ps *placeScratch) reset() {
	ps.nodes = ps.nodes[:0]
	ps.cores = ps.cores[:0]
}

// applyPlace records a job's allocation on one node, updating the
// node, its scope aggregates, and the cluster's OOM-armed count.
// Caller holds s.mu.
func (s *Scheduler) applyPlace(ns *nodeState, j *Job, cores int) {
	for _, sc := range ns.scopes {
		sc.account(ns, -1)
	}
	wasArmed := ns.oomArmed()
	ns.usedCores += cores
	ns.usedMem += j.Spec.MemB
	ns.usedGPUs += j.Spec.GPUs
	ns.jobs = slices.Insert(ns.jobs, searchID(ns.jobs, j.ID), j)
	ns.addUser(j.User)
	ns.memCommit += effMemB(j)
	if j.Spec.ActualMemB > ns.node.MemB {
		ns.overCount++
	}
	if ns.oomArmed() != wasArmed {
		s.armedNodes++
	}
	for _, sc := range ns.scopes {
		sc.account(ns, +1)
	}
}

// applyRelease undoes applyPlace for one node of a finishing job.
// Caller holds s.mu.
func (s *Scheduler) applyRelease(ns *nodeState, j *Job, cores int) {
	for _, sc := range ns.scopes {
		sc.account(ns, -1)
	}
	wasArmed := ns.oomArmed()
	ns.usedCores -= cores
	ns.usedMem -= j.Spec.MemB
	ns.usedGPUs -= j.Spec.GPUs
	i := searchID(ns.jobs, j.ID)
	ns.jobs = slices.Delete(ns.jobs, i, i+1)
	ns.delUser(j.User)
	ns.memCommit -= effMemB(j)
	if j.Spec.ActualMemB > ns.node.MemB {
		ns.overCount--
	}
	if ns.oomArmed() != wasArmed {
		s.armedNodes--
	}
	for _, sc := range ns.scopes {
		sc.account(ns, +1)
	}
}

// enrollScope computes a fresh scope over the member nodes selected
// by keep, wires it into each member's scope list, and returns it.
// Caller holds s.mu.
func (s *Scheduler) enrollScope(keep func(*nodeState) bool) *capScope {
	sc := newCapScope(s.maxNodeGPUs)
	for _, ns := range s.nodes {
		if ns.node.Kind != simos.Compute || !keep(ns) {
			continue
		}
		sc.enroll(ns)
		ns.scopes = append(ns.scopes, sc)
	}
	return sc
}

// dropScope detaches a scope from every node (a partition being
// replaced). Caller holds s.mu.
func (s *Scheduler) dropScope(sc *capScope) {
	for _, ns := range s.nodes {
		for i, have := range ns.scopes {
			if have == sc {
				ns.scopes = append(ns.scopes[:i], ns.scopes[i+1:]...)
				break
			}
		}
	}
}
