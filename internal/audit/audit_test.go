package audit

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// report builds a Report whose results' details are "detail-<name>".
func report(config string, results ...Result) *Report {
	for i := range results {
		results[i].Detail = Note("detail-" + results[i].Probe.Name)
	}
	return &Report{ConfigName: config, Results: results}
}

func result(ch Channel, name string, residual bool, v Verdict) Result {
	return Result{Probe: Probe{Channel: ch, Name: name, Residual: residual}, Verdict: v}
}

// sorted returns the results in Compare order, as a scan reports them.
func sorted(results ...Result) []Result {
	slices.SortFunc(results, func(a, b Result) int { return Compare(a.Probe, b.Probe) })
	return results
}

func TestScannerRunOrdering(t *testing.T) {
	rep := report("test", sorted(
		result(ChanNetwork, "b", false, Denied),
		result(ChanFS, "z", false, Leaked),
		result(ChanFS, "a", false, Denied))...)
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	// Sorted by channel then name: fs/a, fs/z, network/b.
	order := []string{"a", "z", "b"}
	for i, want := range order {
		if rep.Results[i].Probe.Name != want {
			t.Errorf("result[%d] = %s, want %s", i, rep.Results[i].Probe.Name, want)
		}
	}
}

// TestScannerRunOrderPinned: the report's row order is (channel,
// name) regardless of registration order — the rendering-determinism
// half of the report contract. Every permutation of the same probe
// set must render byte-identical tables.
func TestScannerRunOrderPinned(t *testing.T) {
	results := []Result{
		result(ChanNetwork, "dial", false, Denied),
		result(ChanFS, "home", false, Leaked),
		result(ChanFS, "chmod", false, Denied),
		result(ChanAbstract, "dgram", true, Leaked),
		result(ChanProcess, "ps", false, Denied),
		result(ChanGPU, "residue", false, Leaked),
	}
	var want string
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Result(nil), results...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		rep := report("pin", sorted(shuffled...)...)
		got := rep.Table().Render()
		if trial == 0 {
			want = got
			for i, name := range []string{"dgram", "chmod", "home", "residue", "dial", "ps"} {
				if rep.Results[i].Probe.Name != name {
					t.Fatalf("result[%d] = %q, want %q", i, rep.Results[i].Probe.Name, name)
				}
			}
			continue
		}
		if got != want {
			t.Fatalf("registration order %d changed the rendered report:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

func TestReportCounts(t *testing.T) {
	rep := report("enhanced",
		result(ChanFS, "blocked", false, Denied),
		result(ChanFS, "leak", false, Leaked),
		result(ChanTmpNames, "residual", true, Leaked))
	u, r := rep.Leaks()
	if u != 1 || r != 1 {
		t.Errorf("leaks = %d,%d want 1,1", u, r)
	}
	if out := rep.Table().Render(); !strings.Contains(out, "1 closed, 1 unexpected leaks, 1 residual channels open") {
		t.Errorf("note miscounts the verdicts:\n%s", out)
	}
}

func TestReportTableRendering(t *testing.T) {
	out := report("baseline",
		result(ChanFS, "chmod-world", false, Leaked),
		result(ChanAbstract, "abstract-dgram", true, Leaked),
		result(ChanNetwork, "cross-dial", false, Denied),
		result(ChanGPU, "broken-setup", false, Inconclusive)).Table().Render()
	for _, want := range []string{"LEAK", "open (residual)", "closed", "INCONCLUSIVE", "leak scan — baseline",
		"1 closed, 1 unexpected leaks, 1 residual channels open", "1 inconclusive"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestProbeDetailPropagates(t *testing.T) {
	out := report("x", result(ChanGPU, "residue", false, Leaked)).Table().Render()
	if !strings.Contains(out, "detail-residue") {
		t.Errorf("rendered report lost the detail:\n%s", out)
	}
}
