package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/shard"
)

// tiny shrinks a workload to smoke-test size; the pins then do not
// apply, so the tests use a seed other than pinSeed.
func tiny(name string) *workloadSpec {
	w, _ := workloadByName(name)
	t := *w
	t.reps, t.nodes, t.users, t.active, t.inputs = 2, 40, 300, 4, 2
	if name == "redteam" {
		t.reps = 1
	}
	return &t
}

const testSeed = 7

// inProcService serves campaigns from this process through the shard
// package's service and in-process launcher, so no binary is built.
func inProcService(t *testing.T) starter {
	return func() (string, stopFunc, error) {
		svc, err := shard.NewService(shard.ServiceConfig{DefaultShards: fleetdShards, Workers: 1, Dir: t.TempDir(), EnablePprof: true})
		if err != nil {
			return "", nil, err
		}
		srv := httptest.NewServer(svc.Handler())
		return srv.URL, func() (float64, error) {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return 0, svc.Drain(ctx)
		}, nil
	}
}

func testEnv(t *testing.T, w *workloadSpec) *env {
	e := &env{seed: testSeed, window: 20 * time.Millisecond, dir: t.TempDir(),
		traceOut: filepath.Join(t.TempDir(), "trace.ndjson")}
	if w.service {
		e.start = inProcService(t)
		if err := w.prepareService(e); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, got, want)
		}
	}
}

// TestWorkloads runs every workload, measured and traced, at a tiny
// size: outputs check, the traced replay reproduces the program's
// result, and each mode reports exactly the metrics BENCHMARK.json
// declares.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := tiny(name)
			for _, traced := range []bool{false, true} {
				e := testEnv(t, w)
				run, want := w.measure, endToEnd
				if traced {
					run, want = w.traced, perLayer
				}
				res, err := run(e)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				sameNames(t, name, metricNames(res), want)
			}
		})
	}
}

// TestReplayMatchesRun: the replay the traced run measures is the
// program fleet.Run executes, byte for byte, attacked scenarios
// included.
func TestReplayMatchesRun(t *testing.T) {
	for _, name := range []string{"drain", "redteam"} {
		c, err := tiny(name).setupCampaign()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := runReference(c, testSeed, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := replay(c, testSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestDigestsRepeat: two independent runs of each kind of workload
// produce the same output digest.
func TestDigestsRepeat(t *testing.T) {
	c, err := tiny("redteam").setupCampaign()
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := runReference(c, testSeed, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runReference(c, testSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if digest(a) != digest(b) {
		t.Fatal("campaign digests differ between runs")
	}
	w := tiny("xxl")
	var digests []string
	for run := 0; run < 2; run++ {
		x, err := w.newXXL(testSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck := newXXLChecker(w, testSeed)
		for i := 0; i < w.inputs; i++ {
			o, err := x.trial(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			ck.check(i, o)
		}
		digests = append(digests, ck.digest())
	}
	if digests[0] != digests[1] {
		t.Fatalf("xxl digests differ between runs: %v", digests)
	}
}

// TestChecksRejectCorruptResults: a changed byte, a lost trial, a
// wrong pin or a changed xxl outcome each fail the run.
func TestChecksRejectCorruptResults(t *testing.T) {
	w := tiny("drain")
	c, err := w.setupCampaign()
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := runReference(c, testSeed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if f := newChecker(w, c, testSeed).check(good); f != 0 {
		t.Fatalf("a good result failed %d trials", f)
	}

	var res fleet.CampaignResult
	if err := json.Unmarshal(good, &res); err != nil {
		t.Fatal(err)
	}
	res.Scenarios[0].Util.Mean += 1e-9
	changed, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	res.Scenarios[0].Replications--
	lost, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"changed value": changed, "lost trial": lost, "truncated": good[:len(good)/2]} {
		ck := newChecker(w, c, testSeed)
		ck.check(good)
		if f := ck.check(data); f != c.Trials() {
			t.Errorf("%s: %d of %d trials failed, want all", name, f, c.Trials())
		}
	}
	pinned := newChecker(w, c, pinSeed) // the pin is for the full-size campaign
	if f := pinned.check(good); f != c.Trials() {
		t.Errorf("pin mismatch: %d of %d trials failed, want all", f, c.Trials())
	}
	if f := checkService(newChecker(w, c, testSeed), changed, good); f != c.Trials() {
		t.Errorf("/results differing from the reference: %d of %d trials failed, want all", f, c.Trials())
	}

	x := newXXLChecker(tiny("xxl"), testSeed)
	o := xxlOutcome{Ticks: 5, Util: 0.5}
	x.check(0, o)
	o.Unfinished++
	if x.check(0, o) {
		t.Error("a changed xxl outcome passed")
	}
}

// TestQuartilesMatchPython: statistics.quantiles([1..10], n=4) is
// [2.75, 5.5, 8.25] and statistics.quantiles([1, 2], n=4) is
// [0.75, 1.5, 2.25].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
