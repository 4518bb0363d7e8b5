package sched

import "repro/internal/simos"

// fit decides whether job j can start now under the configured
// sharing policy, writing the placement into s.scratch (node index →
// cores) on success.
//
// It runs in two phases. The feasibility probe checks the job's
// request against the capacity scope's aggregates over all compute
// nodes (placement.go) — an unplaceable job, the common case while a
// campaign drains, is rejected in O(1) without touching a node. Only
// probe survivors pay for the placement scan: greedy first-fit in
// node order, which matches the paper's description of node-based
// scheduling for large volumes of short jobs [25] — no reservations,
// just pack what fits subject to the policy constraint. Both phases
// allocate nothing; tryStart materializes the scratch on success.
func (s *Scheduler) fit(j *Job) bool {
	if !s.probe(j) {
		return false
	}
	policy := s.Cfg.Policy
	remaining := j.Spec.Cores
	sc := &s.scratch
	sc.reset()
	for i, ns := range s.nodes {
		if remaining == 0 {
			break
		}
		if ns.node.Kind != simos.Compute || s.lastDown[i] {
			continue
		}
		if !s.nodeEligible(ns, j, policy) {
			continue
		}
		avail := ns.freeCores()
		if avail <= 0 || ns.freeMem() < j.Spec.MemB || ns.freeGPUs() < j.Spec.GPUs {
			continue
		}
		take := avail
		if take > remaining {
			take = remaining
		}
		sc.nodes = append(sc.nodes, i)
		sc.cores = append(sc.cores, take)
		remaining -= take
	}
	if remaining > 0 {
		return false
	}
	// Exclusive policy consumes whole nodes: inflate the core count so
	// nothing else fits on them.
	if policy == PolicyExclusive {
		for k, ni := range sc.nodes {
			sc.cores[k] = s.nodes[ni].freeCores()
		}
	}
	return true
}

// nodeEligible applies the policy's user constraint.
func (s *Scheduler) nodeEligible(ns *nodeState, j *Job, policy SharingPolicy) bool {
	switch policy {
	case PolicyShared:
		return true
	case PolicyExclusive:
		return ns.empty()
	case PolicyUserWholeNode:
		// A node is eligible if it is empty or every allocation on it
		// belongs to this same user (paper §IV-B: "only other jobs
		// from that same user can be scheduled on that node").
		return ns.empty() || ns.soleUser(j.User)
	default:
		return false
	}
}
