package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The tentpole acceptance criterion: campaign JSON is byte-identical
// with pooling enabled vs disabled, for any worker count, and for a
// pooled run killed after a third of its trials and resumed. The sweep
// covers every Reset() path the registry exposes — the e16 preset is
// the control plus one scenario per measure (all 9 ablations, each
// reopening a different subsystem), the smoke preset covers both
// profiles, the e4 grid covers all three sharing policies with OOM
// crash/restore cycles, and the e17 matrix covers the attack path,
// whose victim and attacker are provisioned past the pooled mark.
// Every scenario runs 12 replications, so a pooled slot serves 3
// trials on average even at 4 workers, and at 1 worker every slot
// serves all 12. Run under -race (CI does) this also proves the
// per-worker pool shares nothing.
func TestPoolingEquivalenceSweep(t *testing.T) {
	if len(core.Measures()) != 9 {
		t.Fatalf("measure registry has %d entries; the sweep claim assumes 9 — update this test", len(core.Measures()))
	}
	const reps, maxWorkers = 12, 4
	for _, camp := range []Campaign{smokeCampaign(), e16AblationDrainCampaign(), e4PolicyGridCampaign(), e17RedTeamCampaign()} {
		for i := range camp.Scenarios {
			camp.Scenarios[i].Replications = reps
		}
		t.Run(camp.Name, func(t *testing.T) {
			want := runJSON(t, camp, Options{Workers: 1, Seed: 7, DisablePooling: true})
			for _, pooled := range []bool{false, true} {
				for _, workers := range []int{1, 2, maxWorkers} {
					reg := obs.NewRegistry()
					got := runJSON(t, camp, Options{Workers: workers, Seed: 7, DisablePooling: !pooled, Metrics: reg})
					if !bytes.Equal(got, want) {
						t.Fatalf("pooled=%v workers=%d produced different bytes:\n%s\nvs\n%s",
							pooled, workers, got, want)
					}
					snap := reg.Snapshot()
					builds, hits := counterValue(snap, "fleet_pool_builds_total"), counterValue(snap, "fleet_pool_hits_total")
					if pooled && hits < 2*builds {
						t.Fatalf("workers=%d: %d pooled builds served only %d Reset hits", workers, builds, hits)
					}
				}
			}
			ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, camp.Trials()/3)
			if got := runJSON(t, camp, Options{Workers: 2, Seed: 7, ResumeFrom: ck}); !bytes.Equal(got, want) {
				t.Fatalf("resumed pooled run produced different bytes:\n%s\nvs\n%s", got, want)
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
