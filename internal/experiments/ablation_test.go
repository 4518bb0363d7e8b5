package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
)

// TestAblationSweepDiagonal holds the E16 matrix to the probe
// catalogue's closing conditions: every ablated measure reopens exactly
// the labels of the entries the oracle opens without it (Reopened's
// session starts the victim's job) — no more (a measure silently
// covering for another), no less (a measure that stopped mattering).
func TestAblationSweepDiagonal(t *testing.T) {
	rows, err := AblationSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(core.Measures())+1 {
		t.Fatalf("sweep has %d rows, want control + %d measures", len(rows), len(core.Measures()))
	}
	control := rows[0]
	for _, r := range rows {
		atoms := append(slices.DeleteFunc(core.MeasureNames(), func(n string) bool { return n == r.Measure }), attack.LiveVictimJob)
		var want []string
		for _, e := range attack.Catalogue() {
			if e.Label != "" && e.Open(atoms...) && !slices.Contains(want, e.Label) {
				want = append(want, e.Label)
			}
		}
		if !slices.Equal(r.Reopened, want) {
			t.Errorf("ablating %s reopened %v, want %v", r.Measure, r.Reopened, want)
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
