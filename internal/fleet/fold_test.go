package fleet

import (
	"bytes"
	"fmt"
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
// DegradedTrialResult, then an arrival order for the rest, which
// interleaves the scenarios freely; the partials land in a trial table
// in that order. After each landing every scenario's frontier must
// stand at its first replication not yet landed, whatever the other
// scenarios hold, and the table must hold exactly the landed trials
// behind no frontier. The fold's JSON must equal MergeCheckpoints over
// the complete table, the table must end empty, and merging again must
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
			w.keepRecord(si)
			refs = append(refs, trialRef{scenario: si, rep: rep})
			partials = append(partials, p)
		}
	}
	n := len(refs)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, n))   // every trial restored
	f.Add(bytes.Repeat([]byte{2}, 2*n)) // every trial degraded, in a shuffled order
	// None restored, the trials landing in a chosen order: in reverse,
	// scenario by scenario from the last, round robin over the
	// scenarios, and round robin with each scenario's replications
	// reversed.
	reps := camp.Scenarios[0].Replications
	scens := len(camp.Scenarios)
	for _, order := range [][]int{
		permutation(n, func(i int) int { return n - 1 - i }),
		permutation(n, func(i int) int { return (scens-1-i/reps)*reps + i%reps }),
		permutation(n, func(i int) int { return i%scens*reps + i/scens }),
		permutation(n, func(i int) int { return i%scens*reps + reps - 1 - i/scens }),
	} {
		f.Add(append(make([]byte, n), shuffleInput(order)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		full := newCheckpoint(camp, hash, seed)
		table := newCheckpoint(camp, hash, seed)
		landed := newCheckpoint(camp, hash, seed)
		var arrivals []int
		for i, ref := range refs {
			p := partials[i]
			if at(i)&2 != 0 {
				p = DegradedTrialResult(&camp.Scenarios[ref.scenario])
			}
			full.Scenarios[ref.scenario].Trials[ref.rep] = p
			if at(i)&1 != 0 {
				table.Scenarios[ref.scenario].Trials[ref.rep] = p
				landed.Scenarios[ref.scenario].Trials[ref.rep] = p
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
		checkFrontiers := func(after string) {
			t.Helper()
			behind := 0
			for si, sc := range landed.Scenarios {
				front := 0
				for front < sc.Replications && landed.Trial(si, front) != nil {
					front++
				}
				if fold.rep[si] != front {
					t.Fatalf("%s: scenario %d's frontier is at %d, want %d", after, si, fold.rep[si], front)
				}
				behind += front
			}
			if parked := landed.Completed() - behind; fold.parked != parked || table.Completed() != parked {
				t.Fatalf("%s: %d trials parked (the table holds %d), want %d", after, fold.parked, table.Completed(), parked)
			}
		}
		checkFrontiers("restored")
		for _, i := range arrivals {
			ref := refs[i]
			p := full.Trial(ref.scenario, ref.rep)
			landed.Scenarios[ref.scenario].Trials[ref.rep] = p
			if folded := fold.land(ref.scenario, ref.rep, p); folded != (fold.rep[ref.scenario] > ref.rep) {
				t.Fatalf("trial %v: land reports folded=%v with the frontier at %d", ref, folded, fold.rep[ref.scenario])
			}
			checkFrontiers(fmt.Sprintf("trial %v", ref))
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

// permutation lists at(0), …, at(n-1).
func permutation(n int, at func(int) int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = at(i)
	}
	return p
}

// shuffleInput is the inverse of FuzzFoldOrder's shuffle: the bytes
// that make its Fisher-Yates pass turn 0, 1, …, n-1 into order.
func shuffleInput(order []int) []byte {
	n := len(order)
	cur := permutation(n, func(i int) int { return i })
	var data []byte
	for i := n - 1; i > 0; i-- {
		j := 0
		for cur[j] != order[i] {
			j++
		}
		data = append(data, byte(j))
		cur[i], cur[j] = cur[j], cur[i]
	}
	return data
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

// A worker leaves a scenario only when the dispatcher has no trial of
// it left, so it never needs that slot's pooled cluster again: every
// scenario's cluster is built by the worker that starts it, plus once
// by each worker that joins it after every scenario has started. At
// two workers that is one join in the whole run; at four, each worker
// joins at most workers-1 others. At 200 replications every other
// trial is a pool hit.
func TestPoolReleaseNeverRebuilds(t *testing.T) {
	camp := e17RedTeamCampaign()
	for i := range camp.Scenarios {
		camp.Scenarios[i].Replications = 200
	}
	scenarios := len(camp.Scenarios)
	for _, tc := range []struct{ workers, maxBuilds int }{
		{2, scenarios + 1},
		{4, scenarios + 4*3},
	} {
		reg := obs.NewRegistry()
		if _, err := Run(camp, Options{Workers: tc.workers, Seed: 7, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		builds, hits := counterValue(snap, "fleet_pool_builds_total"), counterValue(snap, "fleet_pool_hits_total")
		if builds > int64(tc.maxBuilds) {
			t.Errorf("workers=%d: %d pooled builds for %d scenarios, at most %d", tc.workers, builds, scenarios, tc.maxBuilds)
		}
		if builds+hits != int64(camp.Trials()) {
			t.Errorf("workers=%d: %d builds + %d hits, want %d trials", tc.workers, builds, hits, camp.Trials())
		}
	}
}

// Two workers on their own scenarios each land their trials at their
// scenario's frontier, so a trial can land ahead of a frontier only in
// the one scenario they share at the end, which the second worker
// joins with at most replications-1 of its trials left. With no delay
// fault, the table of a 2-worker run of the e17 preset (three
// replications a scenario) never parks more than two partials. A run
// that folded behind one frontier over the whole trial order would
// park a scenario's trials until every earlier scenario was in.
func TestRunParksAtMostWorkers(t *testing.T) {
	camp := MustPreset(PresetE17RedTeam)
	all := make([]RepRange, len(camp.Scenarios))
	for si, s := range camp.Scenarios {
		if s.Replications != 3 {
			t.Fatalf("scenario %q has %d replications; the bound assumes 3", s.Name, s.Replications)
		}
		all[si] = RepRange{Hi: s.Replications}
	}
	const workers = 2
	st, err := execute(camp, Options{Workers: workers, Seed: 42}, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.fold.peak > workers {
		t.Errorf("the table parked %d partials at once, at most %d", st.fold.peak, workers)
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
