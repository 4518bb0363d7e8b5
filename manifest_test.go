package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// TestResultManifest pins every published result byte: the tables
// cmd/benchharness prints, and the -json record cmd/fleetrun prints for
// each preset at seed 42 and one worker. Each preset also runs at three
// workers with worker 0 delayed before every trial, so trials land out
// of trial-index order, and must give the same record: the fold waits
// for the frontier instead of merging in completion order. Each record
// is compared with its text golden under testdata/results/, and a
// failure names the golden, the run, the table (benchharness) or
// scenario (fleet) and the first lines that differ. The goldens of
// cmd/hpcsim's output sit beside them and are compared by the
// TestResultManifest of that package, which runs its own test binary
// as hpcsim. A change that moves a published byte re-records the
// goldens with the commands below and lists the moved cells in
// CHANGES.md:
//
//	go run ./cmd/benchharness > testdata/results/benchharness.txt
//	for p in smoke e4-policy-grid e16-ablation-drain e17-redteam; do go run ./cmd/fleetrun -preset $p -seed 42 -workers 1 -json > testdata/results/$p.json; done
//	go run ./cmd/hpcsim > testdata/results/hpcsim.txt
//	go run ./cmd/hpcsim -profile baseline > testdata/results/hpcsim-baseline.txt
//	go run ./cmd/hpcsim -attack kill-chain > testdata/results/hpcsim-kill-chain.txt
func TestResultManifest(t *testing.T) {
	var b strings.Builder
	for _, tb := range experiments.All() {
		b.WriteString(tb.Render())
		b.WriteString("\n")
	}
	compareGolden(t, "benchharness.txt", "cmd/benchharness", b.String(), "== ")
	runs := []struct {
		name string
		opt  fleet.Options
	}{
		{"1 worker", fleet.Options{Workers: 1, Seed: 42}},
		{"3 workers, worker 0 delayed 3 ms per trial", fleet.Options{Workers: 3, Seed: 42, Faults: &fleet.FaultPlan{
			Delays: []fleet.WorkerDelay{{Worker: 0, PerTrialMS: 3}},
		}}},
	}
	for _, camp := range fleet.Presets() {
		for _, run := range runs {
			res, err := fleet.Run(camp, run.opt)
			if err != nil {
				t.Fatalf("%s (%s): %v", camp.Name, run.name, err)
			}
			data, err := res.JSON()
			if err != nil {
				t.Fatalf("%s (%s): %v", camp.Name, run.name, err)
			}
			compareGolden(t, camp.Name+".json", run.name, string(data), `"name": `)
		}
	}
}

// compareGolden reports where got, rendered by run, departs from the
// golden name: the first maxDiffLines lines that differ, each with the
// table it sits in, which is the last line at or before it that holds
// marker.
func compareGolden(t *testing.T, name, run, got, marker string) {
	t.Helper()
	path := filepath.Join("testdata", "results", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	const maxDiffLines = 8
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	table, n := "(none)", 0
	for i := 0; i < max(len(gl), len(wl)) && n < maxDiffLines; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.Contains(w, marker) {
			table = strings.TrimSpace(w)
		}
		if g != w {
			fmt.Fprintf(&b, "\ntable %s, line %d:\n got: %q\nwant: %q", table, i+1, g, w)
			n++
		}
	}
	t.Errorf("%s differs from the results rendered by %s:%s", path, run, b.String())
}
