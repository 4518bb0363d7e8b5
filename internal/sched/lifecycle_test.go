package sched

import (
	"fmt"
	"testing"
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
	s.mu.Lock()
	state := s.jobs[id-1].State
	s.mu.Unlock()
	if state != Completed {
		tb.Fatalf("job %d ended %v, want completed", id, state)
	}
}

// BenchmarkJobLifecycle measures submit, start and finish of one job on
// an 8-node cluster, on one node and spanning all eight. The scheduler
// is Reset every 1024 jobs so the job table stays bounded.
func BenchmarkJobLifecycle(b *testing.B) {
	for _, nodes := range []int{1, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			s := New(Config{}, computeNodes(8, 4, 1<<30), 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					s.Reset()
				}
				lifecycle(b, s, 4*nodes)
			}
		})
	}
}

// TestJobLifecycleAllocs pins what one job costs the allocator: the
// Job and its credential at submit; Nodes, Cores and the task PIDs at
// start, plus one process entry and its argv per node. Finish
// allocates nothing. The scheduler is warmed and Reset first, so the
// job table, pending queue, calendar and accounting records already
// have the capacity the measured jobs need.
func TestJobLifecycleAllocs(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  float64
	}{
		{1, 7},
		{8, 21},
	} {
		s := New(Config{}, computeNodes(8, 4, 1<<30), 0)
		for i := 0; i < 256; i++ {
			lifecycle(t, s, 4*tc.nodes)
		}
		s.Reset()
		if got := testing.AllocsPerRun(100, func() { lifecycle(t, s, 4*tc.nodes) }); got != tc.want {
			t.Errorf("%d-node job lifecycle allocates %.0f objects, want %.0f", tc.nodes, got, tc.want)
		}
	}
}
