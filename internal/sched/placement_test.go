package sched

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simos"
)

// recomputeScope rebuilds a scope's aggregates from raw node state.
// Caller holds s.mu (or owns the scheduler exclusively).
func recomputeScope(s *Scheduler, members func(*nodeState) bool) *capScope {
	want := newCapScope(s.maxNodeGPUs)
	for _, ns := range s.nodes {
		if ns.node.Kind != simos.Compute || !members(ns) {
			continue
		}
		want.enroll(ns)
	}
	return want
}

// checkAggregates asserts every incrementally maintained aggregate
// equals its recomputed-from-scratch value.
func checkAggregates(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()

	scopes := map[string]struct {
		got     *capScope
		members func(*nodeState) bool
	}{
		"default": {s.defaultScope, func(*nodeState) bool { return true }},
	}
	for name, p := range s.partitions {
		prefix := p.NodePrefix
		scopes["partition "+name] = struct {
			got     *capScope
			members func(*nodeState) bool
		}{p.scope, func(ns *nodeState) bool {
			return len(ns.node.Name) >= len(prefix) && ns.node.Name[:len(prefix)] == prefix
		}}
	}
	for label, sc := range scopes {
		want := recomputeScope(s, sc.members)
		got := sc.got
		if got.freeCores != want.freeCores {
			t.Fatalf("%s: %s freeCores = %d, recomputed %d", when, label, got.freeCores, want.freeCores)
		}
		if got.emptyNodes != want.emptyNodes || got.emptyCores != want.emptyCores {
			t.Fatalf("%s: %s empty = (%d nodes, %d cores), recomputed (%d, %d)",
				when, label, got.emptyNodes, got.emptyCores, want.emptyNodes, want.emptyCores)
		}
		if len(got.userFree) != len(want.userFree) {
			t.Fatalf("%s: %s userFree has %d entries, recomputed %d (%v vs %v)",
				when, label, len(got.userFree), len(want.userFree), got.userFree, want.userFree)
		}
		for u, v := range want.userFree {
			if got.userFree[u] != v {
				t.Fatalf("%s: %s userFree[%d] = %d, recomputed %d", when, label, u, got.userFree[u], v)
			}
		}
		if got.maxNodeMemB != want.maxNodeMemB {
			t.Fatalf("%s: %s maxNodeMemB = %d, recomputed %d", when, label, got.maxNodeMemB, want.maxNodeMemB)
		}
		for g := 1; g < len(want.gpuAtLeast); g++ {
			if got.gpuAtLeast[g] != want.gpuAtLeast[g] {
				t.Fatalf("%s: %s gpuAtLeast[%d] = %d, recomputed %d",
					when, label, g, got.gpuAtLeast[g], want.gpuAtLeast[g])
			}
		}
	}

	// Per-node OOM bookkeeping and the cluster armed count.
	armed := 0
	for _, ns := range s.nodes {
		var commit int64
		over := 0
		for _, j := range ns.jobs {
			commit += effMemB(j)
			if j.Spec.ActualMemB > ns.node.MemB {
				over++
			}
		}
		if ns.memCommit != commit || ns.overCount != over {
			t.Fatalf("%s: node %s memCommit/overCount = %d/%d, recomputed %d/%d",
				when, ns.node.Name, ns.memCommit, ns.overCount, commit, over)
		}
		if ns.oomArmed() {
			armed++
		}
	}
	if s.armedNodes != armed {
		t.Fatalf("%s: armedNodes = %d, recomputed %d", when, s.armedNodes, armed)
	}

	// busyCores mirrors the running set: the calendar's live entries.
	var busy int64
	for _, e := range s.calendar {
		if e.job.State == Running {
			busy += int64(e.job.Spec.Cores)
		}
	}
	if s.busyCores != busy {
		t.Fatalf("%s: busyCores = %d, running sum %d", when, s.busyCores, busy)
	}
}

// TestAggregateInvariants drives a randomized submit/step/cancel/OOM
// mix — including GPU jobs, a policy-override partition, and an
// external node crash+restore — asserting after every event batch
// that the aggregates match a from-scratch recomputation.
func TestAggregateInvariants(t *testing.T) {
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		t.Run(pol.String(), func(t *testing.T) {
			var nodes []*simos.Node
			for i := 0; i < 6; i++ {
				nodes = append(nodes, simos.NewNode(
					[]string{"c00", "c01", "c02", "c03", "debug0", "debug1"}[i],
					simos.Compute, 8, 1<<20, nil))
			}
			s := New(Config{Policy: pol}, nodes, 2)
			shared := PolicyShared
			if err := s.AddPartition(Partition{Name: "debug", NodePrefix: "debug", PolicyOverride: &shared}); err != nil {
				t.Fatal(err)
			}
			rng := metrics.NewRNG(uint64(17 + pol))
			var live []int
			for round := 0; round < 120; round++ {
				switch rng.Intn(5) {
				case 0, 1: // submit
					u := ids.UID(1000 + rng.Intn(4))
					spec := JobSpec{
						Name:     "r",
						Command:  "x",
						Cores:    1 + rng.Intn(10),
						MemB:     1 + int64(rng.Intn(1<<18)),
						Duration: 1 + int64(rng.Intn(5)),
					}
					if rng.Intn(4) == 0 {
						spec.GPUs = 1 + rng.Intn(2)
					}
					if rng.Intn(6) == 0 {
						spec.ActualMemB = 2 << 20 // exceeds node memory: OOM
					}
					if rng.Intn(5) == 0 {
						spec.Partition = "debug"
						spec.GPUs = 0
						spec.Cores = 1 + rng.Intn(4)
					}
					j, err := s.Submit(cred(u), spec)
					if err != nil {
						t.Fatalf("round %d: submit: %v", round, err)
					}
					live = append(live, j.ID)
				case 2: // cancel a random live job (pending or running)
					if len(live) > 0 {
						k := rng.Intn(len(live))
						_ = s.Cancel(ids.RootCred(), live[k])
						live = append(live[:k], live[k+1:]...)
					}
				case 3: // external hardware failure + restore
					if rng.Intn(3) == 0 {
						n := nodes[rng.Intn(len(nodes))]
						n.Crash()
						s.Step()
						n.Restore()
					}
					s.Step()
				default:
					s.Step()
				}
				checkAggregates(t, s, "mid-campaign")
				checkIndexes(t, s, "mid-campaign")
			}
			s.RunAll(10000)
			checkAggregates(t, s, "after drain")
			checkIndexes(t, s, "after drain")
			if n := s.PendingCount(); n != 0 {
				t.Errorf("queue not drained: %d", n)
			}
		})
	}
}

// TestProbeNeverRejectsPlaceable: for every pending job each tick,
// a fit() success implies the probe said yes — i.e. the O(1) bound is
// conservative, never optimistic.
func TestProbeNeverRejectsPlaceable(t *testing.T) {
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		s := New(Config{Policy: pol}, computeNodes(4, 8, 1<<20), 2)
		rng := metrics.NewRNG(uint64(99 + pol))
		for i := 0; i < 80; i++ {
			spec := JobSpec{
				Name: "p", Command: "x",
				Cores:    1 + rng.Intn(12),
				MemB:     1 + int64(rng.Intn(1<<18)),
				Duration: 1 + int64(rng.Intn(4)),
			}
			if rng.Intn(3) == 0 {
				spec.GPUs = 1 + rng.Intn(2)
			}
			if _, err := s.Submit(cred(ids.UID(1000+rng.Intn(3))), spec); err != nil {
				t.Fatal(err)
			}
		}
		for tick := 0; tick < 200; tick++ {
			s.mu.Lock()
			for _, j := range s.pending {
				part := s.partitionOf(j)
				if s.fit(j) && !s.probe(j, s.scopeFor(part), s.effectivePolicy(j)) {
					s.mu.Unlock()
					t.Fatalf("%v: probe rejected job %d but fit placed it", pol, j.ID)
				}
			}
			s.mu.Unlock()
			s.Step()
			if s.PendingCount() == 0 {
				break
			}
		}
		s.RunAll(1000)
	}
}

// TestFitAllocationFree: failed placement attempts must not allocate.
func TestFitAllocationFree(t *testing.T) {
	s := New(Config{Policy: PolicyShared}, computeNodes(2, 4, 1<<20), 0)
	// Fill the cluster.
	if _, err := s.Submit(cred(1000), spec(8, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Step()
	blocked, err := s.Submit(cred(2000), spec(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[blocked.ID-1]
	s.mu.Unlock()
	allocs := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		if s.fit(j) {
			s.mu.Unlock()
			t.Fatal("job fit on a full cluster")
		}
		s.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("failed fit allocates %.1f objects per attempt, want 0", allocs)
	}
}

// TestStepSkipsQueueWhenFull: with the cluster saturated, a tick must
// not walk the pending queue at all — the event-driven gate keeps a
// deep backlog free.
func TestStepSkipsQueueWhenFull(t *testing.T) {
	s := New(Config{Policy: PolicyShared}, computeNodes(2, 4, 1<<20), 0)
	if _, err := s.Submit(cred(1000), spec(8, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Step()
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(cred(ids.UID(1000+i%3)), spec(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Step() // tries (and fails) the whole queue once, then blocks it
	s.mu.Lock()
	if !s.queueBlocked {
		s.mu.Unlock()
		t.Fatal("queue not blocked after a failed pass")
	}
	if s.defaultScope.freeCores != 0 {
		s.mu.Unlock()
		t.Fatalf("cluster should be saturated, freeCores=%d", s.defaultScope.freeCores)
	}
	s.mu.Unlock()
	// Steady-state tick on a saturated cluster: no allocations at all.
	allocs := testing.AllocsPerRun(100, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("saturated tick allocates %.1f objects, want 0", allocs)
	}
	if n := s.PendingCount(); n != 50 {
		t.Fatalf("pending = %d, want 50", n)
	}
}

// TestPartitionScopeProbe: partition jobs probe against the partition
// scope, not the cluster — a debug-partition job must be rejected in
// O(1) when debug nodes are full even though the cluster has room.
func TestPartitionScopeProbe(t *testing.T) {
	nodes := []*simos.Node{
		simos.NewNode("c00", simos.Compute, 8, 1<<20, nil),
		simos.NewNode("debug0", simos.Compute, 4, 1<<20, nil),
	}
	s := New(Config{Policy: PolicyShared}, nodes, 0)
	if err := s.AddPartition(Partition{Name: "debug", NodePrefix: "debug"}); err != nil {
		t.Fatal(err)
	}
	hog, err := s.Submit(cred(1000), JobSpec{Name: "h", Command: "x", Partition: "debug", Cores: 4, MemB: 1, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if got, _ := s.Job(hog.ID); got.State != Running {
		t.Fatalf("debug hog not running: %v", got.State)
	}
	blocked, err := s.Submit(cred(2000), JobSpec{Name: "b", Command: "x", Partition: "debug", Cores: 2, MemB: 1, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[blocked.ID-1]
	if s.probe(j, s.scopeFor(s.partitionOf(j)), s.effectivePolicy(j)) {
		s.mu.Unlock()
		t.Fatal("probe admitted a job on a full partition")
	}
	if !s.probe(j, s.defaultScope, PolicyShared) {
		s.mu.Unlock()
		t.Fatal("cluster-wide probe should still have room (sanity)")
	}
	s.mu.Unlock()
	checkAggregates(t, s, "partition probe")
}
