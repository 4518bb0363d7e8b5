package sched

import (
	"fmt"
	"testing"

	"repro/internal/ids"
)

var lifecycleCred = cred(1000)

// lifecycle submits one job of the given width and steps until it has
// started and finished: the whole per-job cost of a draining campaign.
func lifecycle(tb testing.TB, s *Scheduler, cores int) {
	id, err := s.Submit(lifecycleCred, JobSpec{Name: "j", Command: "a.out --secret", Cores: cores, MemB: 1, Duration: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s.Step() // starts
	s.Step() // finishes
	state := s.jobs[id-1].State
	if state != Completed {
		tb.Fatalf("job %d ended %v, want completed", id, state)
	}
}

// BenchmarkJobLifecycle measures submit, start and finish of one job on
// an 8-node cluster, on one node and spanning all eight. The nodes and
// the scheduler are Reset every 1024 jobs, as a pooled trial would be,
// so the job table and the nodes' job slabs stay bounded.
func BenchmarkJobLifecycle(b *testing.B) {
	for _, nodes := range []int{1, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cluster := computeNodes(8, 4, 1<<30)
			s := New(Config{}, cluster, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					for _, n := range cluster {
						n.Reset()
					}
					s.Reset()
				}
				lifecycle(b, s, 4*nodes)
			}
		})
	}
}

// TestJobLifecycleAllocs pins what one job costs the allocator in a
// pooled trial: nothing. Submit takes the Job and its credential's
// groups from the scheduler's slabs; start carves Nodes, Cores and the
// task PIDs from the placement slabs, and each node's task entry from
// that node's job slab; finish allocates nothing.
// A warm-up trial runs first, then the nodes and the scheduler are
// Reset as core.Cluster.Reset does, so the slabs, job table, pending
// queue, calendar and accounting records already have the capacity
// the measured jobs need. Resetting the nodes makes the 0 exact, and
// the count is taken over a whole batch of jobs, not averaged per job,
// so a slab that grew even once (one allocation per 64 jobs) fails.
func TestJobLifecycleAllocs(t *testing.T) {
	for _, nodes := range []int{1, 8} {
		cluster := computeNodes(8, 4, 1<<30)
		s := New(Config{}, cluster, 0)
		for i := 0; i < 256; i++ {
			lifecycle(t, s, 4*nodes)
		}
		for _, n := range cluster {
			n.Reset()
		}
		s.Reset()
		// AllocsPerRun runs the batch twice, a warm-up and the measured
		// run: 200 jobs, within the 256 the first trial sized the slabs for.
		batch := func() {
			for i := 0; i < 100; i++ {
				lifecycle(t, s, 4*nodes)
			}
		}
		if got := testing.AllocsPerRun(1, batch); got != 0 {
			t.Errorf("100 %d-node job lifecycles allocate %v objects, want 0", nodes, got)
		}
	}
}

// drainMix is an E4-shaped workload, built inline: 6 users × 50 jobs
// interleaved round-robin, 1–8 cores and 1–4 ticks each, and every
// 60th job using twice a node's memory.
func drainMix() []JobSpec {
	const users, perUser = 6, 50
	specs := make([]JobSpec, 0, users*perUser)
	for i := 0; i < perUser; i++ {
		for u := 0; u < users; u++ {
			sp := JobSpec{
				Name:     fmt.Sprintf("mc-%d", i),
				Command:  fmt.Sprintf("montecarlo --seed=%d", 1000*u+i),
				Cores:    1 + (7*u+3*i)%8,
				MemB:     1 << 20,
				Duration: int64(1 + (u+i)%4),
			}
			if len(specs)%60 == 59 {
				sp.ActualMemB = 2 << 30
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

// BenchmarkSchedDrain is the per-layer row for the scheduler: submit
// the E4-shaped mix and drain it on 8 × 16-core nodes, under each
// sharing policy, with the nodes and the scheduler Reset between
// iterations as a pooled trial does.
func BenchmarkSchedDrain(b *testing.B) {
	specs := drainMix()
	var users [6]ids.Credential
	for u := range users {
		users[u] = cred(ids.UID(1000 + u))
	}
	for _, policy := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		b.Run(policy.String(), func(b *testing.B) {
			nodes := computeNodes(8, 16, 1<<30)
			s := New(Config{Policy: policy, PrivateData: true}, nodes, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, n := range nodes {
					n.Reset()
				}
				s.Reset()
				for k, sp := range specs {
					if _, err := s.Submit(users[k%len(users)], sp); err != nil {
						b.Fatal(err)
					}
				}
				if s.RunAll(5000) >= 5000 {
					b.Fatal("drain did not finish")
				}
			}
		})
	}
}
