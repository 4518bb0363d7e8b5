//go:build !race

package fleet

import (
	"runtime/debug"
	"testing"
)

// TestPooledTrialAllocsReduction pins the allocations per trial of
// LifecycleCampaign run through one worker's runTrial, with clusters
// built fresh per trial and with pooled ones Reset between trials: the
// BenchmarkTrialLifecycle rows. The pooled pin is 7% of the fresh
// one, well inside the lifecycle acceptance criterion (a reduction of
// at least 60%). One warm pass over the replications builds the pool
// and sizes the scratch first. The collector is off: a GC between the
// warm-up and the measured trials empties sync.Pool, and the refill
// would count against them. The race detector allocates on its own
// account, so this builds only without -race.
func TestPooledTrialAllocsReduction(t *testing.T) {
	const reps = 8
	comp, err := compileCampaign(LifecycleCampaign(reps), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		row     string
		pooling bool
		want    float64
	}{
		{"TrialLifecycle/fresh", false, 1174},
		{"TrialLifecycle/pooled", true, 83},
	} {
		w := newTrialWorker(comp, tc.pooling)
		rep := 0
		trial := func() {
			if _, err := w.runTrial(0, rep%reps); err != nil {
				t.Fatal(err)
			}
			rep++
		}
		for rep < reps {
			trial()
		}
		if got := testing.AllocsPerRun(2*reps, trial); got != tc.want {
			t.Errorf("%s allocates %v per trial, pinned at %v", tc.row, got, tc.want)
		}
	}
}
