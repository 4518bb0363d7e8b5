package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simos"
)

// recomputeScope rebuilds the capacity scope from raw node state.
func recomputeScope(s *Scheduler) *capScope {
	members := computeMembers(s)
	want := newCapScope(len(members), s.maxNodeGPUs)
	for _, ns := range members {
		want.enroll(ns)
	}
	return want
}

// computeMembers lists the capacity scope's member nodes.
func computeMembers(s *Scheduler) []*nodeState {
	var out []*nodeState
	for _, ns := range s.nodes {
		if ns.node.Kind == simos.Compute {
			out = append(out, ns)
		}
	}
	return out
}

// checkUserFree asserts that the scope's userFree entries equal the
// recomputed ones as a set, that none is zero or repeats a UID, that
// there are no more of them than member nodes held by a single user,
// and that the slice kept the capacity it was given at construction.
func checkUserFree(t *testing.T, s *Scheduler, got, want []userCap, when string) {
	t.Helper()
	members := computeMembers(s)
	if cap(got) != len(members) {
		t.Fatalf("%s: userFree capacity %d, want the %d member nodes it was sized for", when, cap(got), len(members))
	}
	soleNodes := 0
	for _, ns := range members {
		if _, ok := ns.sole(); ok {
			soleNodes++
		}
	}
	if len(got) > soleNodes {
		t.Fatalf("%s: userFree has %d entries for %d single-user nodes (%v)", when, len(got), soleNodes, got)
	}
	seen := make(map[ids.UID]int64, len(got))
	for _, e := range got {
		if e.free == 0 {
			t.Fatalf("%s: userFree holds a zero entry for uid %d (%v)", when, e.uid, got)
		}
		if _, dup := seen[e.uid]; dup {
			t.Fatalf("%s: userFree holds uid %d twice (%v)", when, e.uid, got)
		}
		seen[e.uid] = e.free
	}
	if len(got) != len(want) {
		t.Fatalf("%s: userFree has %d entries, recomputed %d (%v vs %v)", when, len(got), len(want), got, want)
	}
	for _, e := range want {
		if seen[e.uid] != e.free {
			t.Fatalf("%s: userFree[%d] = %d, recomputed %d", when, e.uid, seen[e.uid], e.free)
		}
	}
}

// checkAggregates asserts every incrementally maintained aggregate
// equals its recomputed-from-scratch value.
func checkAggregates(t *testing.T, s *Scheduler, when string) {
	t.Helper()

	want, got := recomputeScope(s), s.defaultScope
	if got.freeCores != want.freeCores {
		t.Fatalf("%s: freeCores = %d, recomputed %d", when, got.freeCores, want.freeCores)
	}
	if got.emptyNodes != want.emptyNodes || got.emptyCores != want.emptyCores {
		t.Fatalf("%s: empty = (%d nodes, %d cores), recomputed (%d, %d)",
			when, got.emptyNodes, got.emptyCores, want.emptyNodes, want.emptyCores)
	}
	checkUserFree(t, s, got.userFree, want.userFree, when)
	if got.maxNodeMemB != want.maxNodeMemB {
		t.Fatalf("%s: maxNodeMemB = %d, recomputed %d", when, got.maxNodeMemB, want.maxNodeMemB)
	}
	for g := 1; g < len(want.gpuAtLeast); g++ {
		if got.gpuAtLeast[g] != want.gpuAtLeast[g] {
			t.Fatalf("%s: gpuAtLeast[%d] = %d, recomputed %d",
				when, g, got.gpuAtLeast[g], want.gpuAtLeast[g])
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

	// busyCores mirrors the running set: the Running jobs in the table.
	var busy int64
	for _, j := range s.jobs {
		if j.State == Running {
			busy += int64(j.Spec.Cores)
		}
	}
	if s.busyCores != busy {
		t.Fatalf("%s: busyCores = %d, running sum %d", when, s.busyCores, busy)
	}
}

// checkTaskProcesses asserts the scheduler and the node process
// tables agree: every running job has exactly one task process on each
// node it occupies — slurmstepd running its command as its user,
// tagged with its ID and pinning max(MemB, ActualMemB) — and no
// process anywhere carries the ID of a job that is not running.
func checkTaskProcesses(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	for _, ns := range s.nodes {
		seen := make(map[int]int)
		var procs []*simos.Process
		ns.node.Procs.Visit(func(p *simos.Process) bool { procs = append(procs, p); return true })
		for _, p := range procs {
			if p.JobID == 0 {
				continue
			}
			if p.JobID < 1 || p.JobID > len(s.jobs) {
				t.Fatalf("%s: node %s pid %d carries unknown job %d", when, ns.node.Name, p.PID, p.JobID)
			}
			j := s.jobs[p.JobID-1]
			if j.State != Running {
				t.Fatalf("%s: node %s pid %d carries job %d in state %v", when, ns.node.Name, p.PID, j.ID, j.State)
			}
			seen[j.ID]++
			if p.Comm != "slurmstepd" || len(p.Cmdline) != 2 || p.Cmdline[0] != "slurmstepd" || p.Cmdline[1] != j.Spec.Command {
				t.Fatalf("%s: job %d task on %s runs %q %q", when, j.ID, ns.node.Name, p.Comm, p.Cmdline)
			}
			if p.Cred.UID != j.User || p.PPID != 1 || p.RSS != effMemB(j) {
				t.Fatalf("%s: job %d task on %s has uid %d ppid %d rss %d, want %d 1 %d",
					when, j.ID, ns.node.Name, p.Cred.UID, p.PPID, p.RSS, j.User, effMemB(j))
			}
		}
		for _, j := range ns.jobs {
			if seen[j.ID] != 1 {
				t.Fatalf("%s: running job %d has %d task processes on %s, want 1", when, j.ID, seen[j.ID], ns.node.Name)
			}
		}
		if len(seen) != len(ns.jobs) {
			t.Fatalf("%s: node %s has tasks of %d jobs but runs %d", when, ns.node.Name, len(seen), len(ns.jobs))
		}
	}
}

// checkPassComplete asserts the guarantee the queue gate stands on:
// while queueBlocked is set, which every Step leaves it, no pending
// job fits. A pass that stops while a queued job could still start, or
// a gate left closed over an event that freed capacity, fails here.
// Skipping the pass (Step) and skipping ticks (fastForward) are
// exact only because of it. fit writes nothing but the placement
// scratch, so the check leaves the scheduler as it found it.
func checkPassComplete(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	if !s.queueBlocked {
		return
	}
	for _, j := range s.pending {
		if s.fit(j) {
			t.Fatalf("%s: queue gate closed, but pending job %d (%d cores, user %d) fits now",
				when, j.ID, j.Spec.Cores, j.User)
		}
	}
}

// TestAggregateInvariants drives a randomized submit/step/cancel/OOM
// mix — including GPU jobs and an external node crash+restore —
// asserting after every event batch
// that the aggregates match a from-scratch recomputation and that the
// node process tables hold exactly the running jobs' task processes,
// and after every Step that the pass left no job that fits queued. A
// deep backlog with OOM jobs then drains in one RunAll, which must
// leave an empty queue and the same invariants.
func TestAggregateInvariants(t *testing.T) {
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		t.Run(pol.String(), func(t *testing.T) {
			nodes := computeNodes(6, 8, 1<<20)
			s := New(Config{Policy: pol}, nodes, 2)
			rng := metrics.NewRNG(uint64(17 + pol))
			step := func() {
				s.Step()
				checkPassComplete(t, s, "after Step")
			}
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
					j, err := s.Submit(cred(u), spec)
					if err != nil {
						t.Fatalf("round %d: submit: %v", round, err)
					}
					live = append(live, j)
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
						step()
						n.Restore()
					}
					step()
				default:
					step()
				}
				checkAggregates(t, s, "mid-campaign")
				checkIndexes(t, s, "mid-campaign")
				checkTaskProcesses(t, s, "mid-campaign")
			}
			for i := 0; i < 150; i++ {
				sp := spec(1+rng.Intn(8), 1+int64(rng.Intn(4)))
				if i%40 == 39 {
					sp.ActualMemB = 2 << 20
				}
				if _, err := s.Submit(cred(ids.UID(1000+i%4)), sp); err != nil {
					t.Fatal(err)
				}
			}
			s.RunAll(10000)
			checkAggregates(t, s, "after drain")
			checkIndexes(t, s, "after drain")
			checkTaskProcesses(t, s, "after drain")
			if n := len(s.pending); n != 0 {
				t.Errorf("queue not drained: %d", n)
			}
		})
	}
}

// TestProbeNeverRejectsPlaceable: for every pending job each tick,
// a fit() success implies the probe said yes — i.e. the O(1) bound is
// conservative, never optimistic — and no job that fits outlives a
// pass.
func TestProbeNeverRejectsPlaceable(t *testing.T) {
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		t.Run(pol.String(), func(t *testing.T) {
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
				for _, j := range s.pending {
					if s.fit(j) && !s.probe(j) {
						t.Fatalf("probe rejected job %d but fit placed it", j.ID)
					}
				}
				s.Step()
				checkPassComplete(t, s, fmt.Sprintf("tick %d", tick))
				if len(s.pending) == 0 {
					break
				}
			}
			s.RunAll(1000)
		})
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
	j := s.jobs[blocked-1]
	allocs := testing.AllocsPerRun(100, func() {
		if s.fit(j) {
			t.Fatal("job fit on a full cluster")
		}
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
	if !s.queueBlocked {
		t.Fatal("queue not blocked after a failed pass")
	}
	if s.defaultScope.freeCores != 0 {
		t.Fatalf("cluster should be saturated, freeCores=%d", s.defaultScope.freeCores)
	}
	// Steady-state tick on a saturated cluster: no allocations at all.
	allocs := testing.AllocsPerRun(100, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("saturated tick allocates %.1f objects, want 0", allocs)
	}
	if n := len(s.pending); n != 50 {
		t.Fatalf("pending = %d, want 50", n)
	}
}

// TestPassStopsAtZeroFreeCores: a pass that fills the cluster mid-queue
// stops there. On an 8-core cluster with 2 cores free, three 4-core
// blockers are rejected, two of forty 1-core jobs start, and the pass
// ends with the other 38 unscanned. The queue stays ID-ordered
// as the rejected prefix followed by the unscanned tail, no job goes
// missing, and the pass allocates nothing once a first trial has sized
// the scheduler's storage.
func TestPassStopsAtZeroFreeCores(t *testing.T) {
	nodes := computeNodes(2, 4, 1<<20)
	s := New(Config{Policy: PolicyShared}, nodes, 0)
	const blockers, small = 3, 40
	setup := func() {
		if _, err := s.Submit(cred(1000), spec(6, 1000)); err != nil {
			t.Fatal(err)
		}
		s.Step() // the 6-core filler starts: 2 cores stay free
		for i := 0; i < blockers; i++ {
			if _, err := s.Submit(cred(1001), spec(4, 1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < small; i++ {
			if _, err := s.Submit(cred(ids.UID(1002+i%3)), spec(1, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each tick the two 1-core jobs of the last one finish and two more
	// start; AllocsPerRun makes runs+1 such ticks.
	const runs = 10
	setup()
	for i := 0; i <= runs; i++ {
		s.Step()
	}
	s.RunAll(10000)
	for _, n := range nodes {
		n.Reset()
	}
	s.Reset()
	setup()
	if allocs := testing.AllocsPerRun(runs, func() { s.Step() }); allocs != 0 {
		t.Errorf("a pass that runs out of cores mid-queue allocates %.1f objects, want 0", allocs)
	}

	if s.defaultScope.freeCores != 0 {
		t.Fatalf("freeCores = %d after the pass, want 0", s.defaultScope.freeCores)
	}
	// Job 1 is the filler, 2..4 the blockers, 5.. the 1-core jobs; each
	// of the runs+1 ticks started two of those.
	started := 2 * (runs + 1)
	want := []int{2, 3, 4}
	for id := 5 + started; id <= 1+blockers+small; id++ {
		want = append(want, id)
	}
	got := make([]int, len(s.pending))
	for i, j := range s.pending {
		got[i] = j.ID
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pending = %v, want the blockers then the unscanned tail %v", got, want)
	}
	running := s.calendar.live
	if n := len(s.pending) + running + len(s.records); n != len(s.jobs) {
		t.Fatalf("pending %d + running %d + finished %d = %d, submitted %d",
			len(s.pending), running, len(s.records), n, len(s.jobs))
	}
}
