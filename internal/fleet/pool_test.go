package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The tentpole acceptance criterion: campaign JSON is byte-identical
// with pooling enabled vs disabled, for any worker count. The sweep
// covers every Reset() path the registry exposes — the e16 preset is
// the control plus one scenario per measure (all 9 ablations, each
// reopening a different subsystem), the smoke preset covers both
// profiles, and the e4 grid covers all three sharing policies with
// OOM crash/restore cycles. Run under -race (CI does) this also
// proves the per-worker pool shares nothing.
func TestPoolingEquivalenceSweep(t *testing.T) {
	if len(core.Measures()) != 9 {
		t.Fatalf("measure registry has %d entries; the sweep claim assumes 9 — update this test", len(core.Measures()))
	}
	for _, camp := range []Campaign{smokeCampaign(), e16AblationDrainCampaign(), e4PolicyGridCampaign()} {
		t.Run(camp.Name, func(t *testing.T) {
			var want []byte
			for _, pooled := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					res, err := Run(camp, Options{Workers: workers, Seed: 7, DisablePooling: !pooled})
					if err != nil {
						t.Fatalf("pooled=%v workers=%d: %v", pooled, workers, err)
					}
					got, err := res.JSON()
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
						continue
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("pooled=%v workers=%d produced different bytes:\n%s\nvs\n%s",
							pooled, workers, got, want)
					}
				}
			}
		})
	}
}

// A trial abandoned mid-flight — users provisioned, half the mix
// submitted, the simulation a few ticks in, nothing drained — must
// leave no trace after Reset: the next pooled trial on that cluster
// is byte-identical to the same trial on a never-used worker. This is
// the Reset contract the panic-isolation path leans on for ordinary
// interruption (the quarantine path additionally assumes a panicked
// trial may have broken Reset itself, which is why it rebuilds).
func TestResetAfterAbandonedTrial(t *testing.T) {
	camp := smokeCampaign()
	comp, err := compileCampaign(camp, 7)
	if err != nil {
		t.Fatal(err)
	}

	w := newTrialWorker(comp, true)
	if _, err := w.runTrial(0, 0); err != nil {
		t.Fatal(err)
	}
	c := w.slots[0].cluster
	if c == nil {
		t.Fatal("pooling worker retained no cluster")
	}

	// Dirty the pooled cluster the way an interrupted trial would:
	// submit a partial mix against the provisioned users, advance the
	// clock, walk away.
	mix, err := camp.Scenarios[0].Workload.Build(metrics.NewRNG(99), w.slots[0].users)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mix[:len(mix)/2] {
		if _, err := c.Sched.Submit(mix[i].Cred, mix[i].Spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		c.Step()
	}

	// runTrial Resets the pooled cluster before reuse; the abandoned
	// state must not leak into replication 1's aggregate.
	got, err := w.runTrial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newTrialWorker(comp, false).runTrial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("abandoned-trial state leaked through Reset:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

// Pooled replications must cost a small fraction of fresh-construction
// replications in allocations — the allocs half of the lifecycle
// acceptance criterion, pinned here deterministically (allocation
// counts don't suffer benchmark-container noise; the ns half lives in
// BenchmarkTrialLifecycle / BENCH_PR5.json).
func TestPooledTrialAllocsReduction(t *testing.T) {
	camp := LifecycleCampaign(8)
	comp, err := compileCampaign(camp, 42)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(pooling bool) float64 {
		w := newTrialWorker(comp, pooling)
		if _, err := w.runTrial(0, 0); err != nil { // warm the pool + scratch
			t.Fatal(err)
		}
		rep := 0
		return testing.AllocsPerRun(10, func() {
			rep++
			if _, err := w.runTrial(0, rep%camp.Scenarios[0].Replications); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh := measure(false)
	pooled := measure(true)
	t.Logf("allocs/trial: fresh %.0f, pooled %.0f (-%.1f%%)", fresh, pooled, 100*(1-pooled/fresh))
	if pooled > fresh*0.40 {
		t.Errorf("pooled trial allocates %.0f vs fresh %.0f: reduction %.1f%% < required 60%%",
			pooled, fresh, 100*(1-pooled/fresh))
	}
}
