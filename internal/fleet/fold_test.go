package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// foldCampaign is the fold fuzz's campaign: the smoke preset's two
// scenarios and the first two of the e17 red-team matrix, three
// replications each, so the fold crosses plain and attacked
// scenarios.
func foldCampaign() Campaign {
	e17 := e17RedTeamCampaign()
	c := Campaign{Name: "fold", Scenarios: append(smokeCampaign().Scenarios, e17.Scenarios[:2]...)}
	for i := range c.Scenarios {
		c.Scenarios[i].Replications = 3
	}
	return c
}

// FuzzFoldOrder: Run's incremental fold gives MergeCheckpoints' bytes
// whatever order the trials land in. The input picks, per trial,
// whether it is restored (as from a resume) and whether it degraded to
// DegradedTrialResult, then an arrival order for the rest; the
// partials go into a trial table in that order, the frontier advancing
// after each. The fold's JSON must equal MergeCheckpoints over the
// complete table, the table must end empty, and merging again must
// give the same bytes: the fold mutated none of its inputs.
func FuzzFoldOrder(f *testing.F) {
	camp := foldCampaign()
	const seed = 7
	comp, err := compileCampaign(camp, seed)
	if err != nil {
		f.Fatal(err)
	}
	hash, err := CampaignHash(camp)
	if err != nil {
		f.Fatal(err)
	}
	w := newTrialWorker(comp, true)
	var refs []trialRef
	var partials []*ScenarioResult
	for si, s := range camp.Scenarios {
		for rep := range s.Replications {
			p, err := w.runTrial(si, rep)
			if err != nil {
				f.Fatal(err)
			}
			refs = append(refs, trialRef{scenario: si, rep: rep})
			partials = append(partials, p)
		}
	}
	n := len(refs)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, n))   // every trial restored
	f.Add(bytes.Repeat([]byte{2}, 2*n)) // every trial degraded, in a shuffled order
	// None restored, and the shuffle's k-th swap exchanges positions
	// n-1-k and k: the trials land in reverse order.
	reverse := make([]byte, 2*n)
	for k := range n {
		reverse[n+k] = byte(min(k, n-1-k))
	}
	f.Add(reverse)
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		full := newCheckpoint(camp, hash, seed)
		table := newCheckpoint(camp, hash, seed)
		var arrivals []int
		for i, ref := range refs {
			p := partials[i]
			if at(i)&2 != 0 {
				p = DegradedTrialResult(&camp.Scenarios[ref.scenario])
			}
			full.Scenarios[ref.scenario].Trials[ref.rep] = p
			if at(i)&1 != 0 {
				table.Scenarios[ref.scenario].Trials[ref.rep] = p
			} else {
				arrivals = append(arrivals, i)
			}
		}
		for i := len(arrivals) - 1; i > 0; i-- {
			j := int(at(n+len(arrivals)-1-i)) % (i + 1)
			arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
		}
		want := mergedJSON(t, camp, full)

		fold := newTableFold(table)
		fold.advance()
		for _, i := range arrivals {
			ref := refs[i]
			table.Scenarios[ref.scenario].Trials[ref.rep] = full.Trial(ref.scenario, ref.rep)
			fold.advance()
		}
		res, err := fold.result(camp, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("arrival order %v: the fold differs from MergeCheckpoints:\n%s\nvs\n%s", arrivals, got, want)
		}
		if left := table.Completed(); left != 0 {
			t.Fatalf("the table holds %d partials after the fold", left)
		}
		if again := mergedJSON(t, camp, full); !bytes.Equal(again, want) {
			t.Fatal("the fold mutated a partial it was fed")
		}
	})
}

func mergedJSON(t *testing.T, c Campaign, ck *Checkpoint) []byte {
	t.Helper()
	res, err := MergeCheckpoints(c, ck.Seed, []*Checkpoint{ck}, false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Run's trial table is empty when the run returns: every partial,
// restored ones included, was folded and released. The resumed run
// leaves its ResumeFrom checkpoint whole, and both runs give the
// uninterrupted bytes.
func TestRunFoldsItsTable(t *testing.T) {
	camp := miniAttackCampaign(t)
	all := make([]RepRange, len(camp.Scenarios))
	for si, s := range camp.Scenarios {
		all[si] = RepRange{Hi: s.Replications}
	}
	clean := runJSON(t, camp, Options{Workers: 2, Seed: 7})
	ck := interruptedCheckpoint(t, camp, Options{Workers: 2, Seed: 7}, 3)
	for _, resume := range []*Checkpoint{nil, ck} {
		st, err := execute(camp, Options{Workers: 2, Seed: 7, ResumeFrom: resume}, all, nil)
		if err != nil {
			t.Fatal(err)
		}
		if left := st.fold.ck.Completed(); left != 0 {
			t.Errorf("resume=%v: the table holds %d partials after the run", resume != nil, left)
		}
		res, err := st.fold.result(camp, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.JSON(); !bytes.Equal(got, clean) {
			t.Errorf("resume=%v: the folded result differs from the uninterrupted run", resume != nil)
		}
	}
	if got := ck.Completed(); got != 3 {
		t.Errorf("the resumed run changed its ResumeFrom checkpoint: %d trials, want 3", got)
	}
}

// A worker releases a scenario's pooled cluster when it takes a trial
// of a later scenario, and never needs it again: at 200 replications
// on two workers each worker builds each scenario's cluster at most
// once, and every other trial is a pool hit.
func TestPoolReleaseNeverRebuilds(t *testing.T) {
	camp := e17RedTeamCampaign()
	for i := range camp.Scenarios {
		camp.Scenarios[i].Replications = 200
	}
	const workers = 2
	reg := obs.NewRegistry()
	if _, err := Run(camp, Options{Workers: workers, Seed: 7, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	builds, hits := counterValue(snap, "fleet_pool_builds_total"), counterValue(snap, "fleet_pool_hits_total")
	if max := int64(workers * len(camp.Scenarios)); builds > max {
		t.Errorf("%d pooled builds, at most %d (workers × scenarios)", builds, max)
	}
	if builds+hits != int64(camp.Trials()) {
		t.Errorf("%d builds + %d hits, want %d trials", builds, hits, camp.Trials())
	}
}

// Trials that land out of order wait in the table for the frontier:
// with one of three workers slowed before every trial, the e17 preset
// still gives the published fleetrun -json record byte for byte.
func TestOutOfOrderArrivalMatchesManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "results", PresetE17RedTeam+".json"))
	if err != nil {
		t.Fatal(err)
	}
	got := runJSON(t, MustPreset(PresetE17RedTeam), Options{Workers: 3, Seed: 42, Faults: &FaultPlan{
		Delays: []WorkerDelay{{Worker: 0, PerTrialMS: 3}},
	}})
	if !bytes.Equal(got, want) {
		t.Fatalf("out-of-order arrival changed the e17 record:\n%s\nvs\n%s", got, want)
	}
}
