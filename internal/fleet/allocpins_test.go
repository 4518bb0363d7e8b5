//go:build !race

package fleet

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPooledTrialAllocsReduction pins the allocations per trial of
// LifecycleCampaign run through one worker's runTrial, with clusters
// built fresh per trial and with pooled ones Reset between trials: the
// BenchmarkTrialLifecycle rows. A warm pooled trial allocates nothing:
// it Resets the slot's cluster and refills the slot's result record,
// well inside the lifecycle acceptance criterion (a reduction of at
// least 60%). One warm pass over the replications builds the pool,
// the record and the scratch first. The collector is off: a GC between the
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
		{"TrialLifecycle/fresh", false, 776},
		{"TrialLifecycle/pooled", true, 0},
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

// TestPooledE17TrialAllocs pins the objects and bounds the bytes that
// warm pooled e17-redteam trials allocate on one worker. A pass runs
// one trial of every replication of every scenario (57 trials) after a
// warm pass has built each scenario's cluster, provisioned its
// adversary and sized every arena and slab the attack steps draw from.
// What a warm trial still allocates is the typed errors of the
// refusals it meets and the fresh results of the read paths that copy
// (ReadDir, ReadFile, a GPU read); its result record is the slot's,
// refilled.
// The collector is off: a GC between the warm-up and the measured
// passes empties sync.Pool, and the refill would count against them.
func TestPooledE17TrialAllocs(t *testing.T) {
	const (
		wantPerPass   = 384 // objects over the 57 trials: 6.7 per trial
		maxTrialBytes = 320 // 259 B measured
	)
	camp := MustPreset(PresetE17RedTeam)
	comp, err := compileCampaign(camp, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := newTrialWorker(comp, true)
	trials := 0
	pass := func() {
		for sc := range comp {
			for rep := 0; rep < comp[sc].spec.Replications; rep++ {
				if _, err := w.runTrial(sc, rep); err != nil {
					t.Fatal(err)
				}
				trials++
			}
		}
	}
	pass()
	perPass := trials
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trials = 0
	objects := testing.AllocsPerRun(4, pass) // a warm-up pass, then the measured ones
	runtime.ReadMemStats(&after)
	perTrial := float64(after.TotalAlloc-before.TotalAlloc) / float64(trials)
	if objects != wantPerPass {
		t.Errorf("a warm pooled e17 pass allocates %v objects (%.2f per trial), pinned at %v", objects, objects/float64(perPass), wantPerPass)
	}
	if perTrial > maxTrialBytes {
		t.Errorf("a warm pooled e17 trial allocates %.0f B, bound %d", perTrial, maxTrialBytes)
	}
}
