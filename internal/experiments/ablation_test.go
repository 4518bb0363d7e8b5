package experiments

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestAblationSweepDiagonal pins the E16 matrix: every ablated
// measure reopens exactly the channels its paper section claims to
// close — no more (a measure silently covering for another), no less
// (a measure that stopped mattering).
func TestAblationSweepDiagonal(t *testing.T) {
	want := map[string][]string{
		"(none)":             nil,
		"hidepid":            {"E1 foreign-pids"},
		"privatedata":        {"E3 foreign-jobs"},
		"wholenode":          {"E5 ssh-roam"},
		"smask":              {"E6 file-content"},
		"protected-symlinks": {"E6 symlink-clobber"},
		// Without the UBF the portal's forwarded hop is unguarded
		// too, so the network ablation reopens both network channels.
		"ubf":       {"E7 stranger-flow", "E11 portal-forward"},
		"portal":    {"E11 portal-forward"},
		"gpu":       {"E9 gpu-device"},
		"container": {"E12 container-unapproved"},
	}
	rows, err := AblationSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(core.Measures())+1 {
		t.Fatalf("sweep has %d rows, want control + %d measures", len(rows), len(core.Measures()))
	}
	var control AblationRow
	for _, r := range rows {
		expect, known := want[r.Measure]
		if !known {
			t.Errorf("unexpected sweep row %q — extend this test with its expected channels", r.Measure)
			continue
		}
		got := append([]string(nil), r.Reopened...)
		sort.Strings(got)
		sort.Strings(expect)
		if !reflect.DeepEqual(got, expect) {
			t.Errorf("ablating %s reopened %v, want %v", r.Measure, r.Reopened, expect)
		}
		if r.Measure == "(none)" {
			control = r
		}
	}
	// The E4 half: only the scheduling ablation moves the drain —
	// shared packing buys utilization but reopens the cross-user OOM
	// blast radius the paper's policy exists to confine.
	for _, r := range rows {
		switch r.Measure {
		case "wholenode":
			if r.Cofailures == 0 {
				t.Errorf("wholenode ablation: no cross-user cofailures (blast radius should reopen)")
			}
			if r.Util <= control.Util {
				t.Errorf("wholenode ablation: util %.3f not above control %.3f (shared should pack tighter)", r.Util, control.Util)
			}
		case "(none)":
			if r.Cofailures != 0 {
				t.Errorf("control drain has %d cross-user cofailures", r.Cofailures)
			}
		default:
			if r.Cofailures != 0 {
				t.Errorf("ablating %s changed OOM blast radius (%d cofailures)", r.Measure, r.Cofailures)
			}
			if r.UtilDelta != 0 {
				t.Errorf("ablating %s moved utilization by %+.3f (non-scheduler measures are control-plane only)", r.Measure, r.UtilDelta)
			}
		}
	}
}

// TestE16TableShape: the rendered matrix stays consumable by the
// harness (header + one row per registry measure + control).
func TestE16TableShape(t *testing.T) {
	tab := E16AblationMatrix()
	render := tab.Render()
	for _, frag := range []string{"E16", "hidepid", "§IV-G", "E7 stranger-flow"} {
		if !strings.Contains(render, frag) {
			t.Errorf("E16 render missing %q:\n%s", frag, render)
		}
	}
}

// TestE16AgreesWithKillChain cross-checks the two diagonals: for the
// control and every single-measure ablation, the E16 labels the sweep
// reports reopened equal the labels of the catalogue entries behind the
// kill chain's non-residual step leaks under the same profile. Both
// batteries read the one probe catalogue, so neither can drift alone.
func TestE16AgreesWithKillChain(t *testing.T) {
	rows, err := AblationSweep()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := attack.ModelByName("kill-chain")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		opts := []core.Option{core.WithTopology(topo())}
		if r.Measure != "(none)" {
			opts = append(opts, core.Without(r.Measure))
		}
		c, err := core.NewWithProfile(core.EnhancedProfile(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var rng metrics.RNG
		rng.Reseed(11)
		out, _, err := chain.Execute(c, &rng, 4000)
		if err != nil {
			t.Fatal(err)
		}
		var fromChain []string
		for name := range out.StepLeaks {
			st, err := attack.StepByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(fromChain, st.Label) {
				fromChain = append(fromChain, st.Label)
			}
		}
		fromSweep := append([]string(nil), r.Reopened...)
		sort.Strings(fromChain)
		sort.Strings(fromSweep)
		if !reflect.DeepEqual(fromChain, fromSweep) {
			t.Errorf("ablating %s: E16 reopened %v, kill chain's step leaks carry %v", r.Measure, fromSweep, fromChain)
		}
	}
}
