package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
)

// TestE17MatrixQualitativeStory pins the matrix's paper reading on
// the preset's own seed: no step is inconclusive, baseline falls to
// every attacker model, enhanced falls to none (and detects every
// campaign), and each
// kill-chain ablation reopens exactly the non-residual steps the probe
// catalogue's oracle opens without that measure.
func TestE17MatrixQualitativeStory(t *testing.T) {
	res, err := fleet.Run(fleet.MustPreset(fleet.PresetE17RedTeam), fleet.Options{Seed: fleetSeed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seenAblations := 0
	for _, s := range res.Scenarios {
		a := s.Attack
		if a == nil {
			t.Fatalf("%s: no attack aggregate", s.Name)
		}
		if a.Trials != s.Replications {
			t.Errorf("%s: attack trials %d != replications %d", s.Name, a.Trials, s.Replications)
		}
		if a.Inconclusive != 0 {
			t.Errorf("%s: %d inconclusive steps — every step must leak or meet an observed refusal", s.Name, a.Inconclusive)
		}
		switch {
		case strings.HasSuffix(s.Name, "/baseline"):
			if a.Successes != a.Trials {
				t.Errorf("%s: %d/%d campaigns broke through, want all (stock system)", s.Name, a.Successes, a.Trials)
			}
			if a.Detected != 0 {
				t.Errorf("%s: %d campaigns detected — baseline denies nothing", s.Name, a.Detected)
			}
		case strings.HasSuffix(s.Name, "/enhanced"):
			if a.Successes != 0 || len(a.StepLeaks.Names()) != 0 {
				t.Errorf("%s: %d/%d campaigns broke through (steps %v), want none",
					s.Name, a.Successes, a.Trials, a.StepLeaks.Names())
			}
			if a.Detected != a.Trials {
				t.Errorf("%s: only %d/%d campaigns detected — every enhanced campaign hits a denial", s.Name, a.Detected, a.Trials)
			}
		default: // kill-chain ablation rows: e17/kill-chain/-<measure>
			seenAblations++
			measure := s.Name[strings.LastIndex(s.Name, "/-")+2:]
			atoms := append(slices.DeleteFunc(core.MeasureNames(), func(n string) bool { return n == measure }), attack.LiveVictimJob)
			var want []string
			for _, st := range attack.Steps() { // the kill chain runs every step
				if !st.Residual() && st.Open(atoms...) {
					want = append(want, st.Name)
				}
			}
			if a.Successes != a.Trials {
				t.Errorf("%s: %d/%d campaigns broke through, want all (its channel is open)", s.Name, a.Successes, a.Trials)
			}
			if got := a.StepLeaks.Names(); !slices.Equal(got, want) {
				t.Errorf("%s reopened %v, want exactly %v", s.Name, got, want)
			}
			if a.Detected != a.Trials {
				t.Errorf("%s: only %d/%d campaigns detected — the other 8 measures still deny steps", s.Name, a.Detected, a.Trials)
			}
		}
		// Residual channels leak everywhere their steps run: the
		// kill-chain and scavenger models carry all/some of the three.
		if strings.Contains(s.Name, "kill-chain") && a.ResidualLeaks != 3*a.Trials {
			t.Errorf("%s: %d residual leaks over %d trials, want 3 each", s.Name, a.ResidualLeaks, a.Trials)
		}
	}
	if seenAblations != len(core.Measures()) {
		t.Errorf("matrix has %d ablation rows, want one per registry measure (%d)", seenAblations, len(core.Measures()))
	}
}

// TestE17TableRendering: the rendered matrix carries both axes and
// the story columns.
func TestE17TableRendering(t *testing.T) {
	out := E17RedTeamMatrix().Render()
	for _, want := range []string{
		"E17", "model", "config", "first-leak", "reopened steps",
		"kill-chain", "-gpu", "gpu-residue", "enhanced", "baseline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
	for _, m := range attack.Models() {
		if !strings.Contains(out, m.Model) {
			t.Errorf("matrix missing model row %q", m.Model)
		}
	}
}
