package experiments

// E17: the attacker-model matrix. Where E1..E12 probe channels one at
// a time and E16 ablates defenses against a fixed battery, E17 runs
// *campaigns*: composed multi-step adversaries (internal/attack)
// executing concurrently with a legitimate workload, replicated under
// independent seeds by the fleet executor. Each cell reports the
// attacker's success rate, how deep into the kill chain the first
// non-residual leak happened, and the detection signal — the tick
// latency from campaign start to the first denied step (a denial is
// the earliest observable a defender could alert on).
//
// The matrix reads as the paper's Results section, adversarially
// re-derived: baseline rows fall to every model at step 1; enhanced
// rows never fall (only the three conceded residual channels leak)
// and detect the campaign within a few ticks; and each single-measure
// ablation row reopens exactly its own measure's steps — the E16
// diagonal, now measured as steps-to-first-leak depth instead of a
// boolean battery.

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// E17RedTeamMatrix runs the e17-redteam preset and renders the
// attacker-model × configuration matrix.
func E17RedTeamMatrix() *metrics.Table {
	res, err := fleet.Run(fleet.MustPreset(fleet.PresetE17RedTeam), fleet.Options{Seed: fleetSeed})
	if err != nil {
		panic(err)
	}
	t := metrics.NewTable(
		"E17: red-team campaigns — attacker model × configuration",
		"model", "config", "success", "first-leak", "detected", "latency", "reopened steps", "residual")
	for _, s := range res.Scenarios {
		model, config := splitE17Name(s.Name)
		a := s.Attack
		firstLeak, latency := "—", "—"
		if a.Successes > 0 {
			firstLeak = fmt.Sprintf("%.1f", a.StepsToFirstLeak.Mean)
		}
		if a.Detected > 0 {
			latency = fmt.Sprintf("%.1f", a.DetectionLatency.Mean)
		}
		t.AddRow(model, config,
			fmt.Sprintf("%d/%d", a.Successes, a.Trials),
			firstLeak,
			fmt.Sprintf("%d/%d", a.Detected, a.Trials),
			latency,
			reopenedSteps(a),
			a.ResidualLeaks)
	}
	t.AddNote("success = trials with ≥1 non-residual leak; first-leak = mean 1-based kill-chain index of the breakthrough step")
	t.AddNote("detected = trials with ≥1 denied step; latency = mean ticks from campaign start to the first denial")
	t.AddNote("enhanced closes every model (residual channels only); each ablation reopens exactly its own measure's steps")
	t.AddNote("campaigns run concurrently with a legitimate mix; seed %d, %d replications per cell", fleetSeed, res.Scenarios[0].Replications)
	return t
}

// splitE17Name splits "e17/<model>/<config>" into its matrix axes.
func splitE17Name(name string) (model, config string) {
	parts := strings.SplitN(name, "/", 3)
	if len(parts) != 3 {
		return name, "?"
	}
	return parts[1], parts[2]
}

// reopenedSteps renders the non-residual leaking steps, sorted — the
// diagonal's evidence column.
func reopenedSteps(a *attack.Agg) string {
	names := a.StepLeaks.Names()
	if len(names) == 0 {
		return "—"
	}
	return strings.Join(names, ", ")
}
