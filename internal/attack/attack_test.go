package attack

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// mustNewWithProfile is NewWithProfile, failing on error.
func mustNewWithProfile(p core.Profile, opts ...core.Option) *core.Cluster {
	c, err := core.NewWithProfile(p, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// attackTopo is the test geometry for scans and campaigns: room for
// the victim's eternal job, GPU jobs on both sides, and two login nodes
// so the attacker works from a different login than the victim.
func attackTopo() core.Topology {
	return core.Topology{ComputeNodes: 4, LoginNodes: 2, CoresPerNode: 8, MemPerNode: 1 << 20, GPUsPerNode: 2}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" = valid
	}{
		{name: "valid", spec: Spec{Model: "m", Steps: []string{"recon-proc"}}},
		{name: "valid with gap", spec: Spec{Model: "m", Steps: []string{"recon-proc"}, GapTicks: 7}},
		{name: "no model", spec: Spec{Steps: []string{"recon-proc"}}, wantErr: "no model name"},
		{name: "no steps", spec: Spec{Model: "m"}, wantErr: "has no steps"},
		{name: "negative gap", spec: Spec{Model: "m", Steps: []string{"recon-proc"}, GapTicks: -1}, wantErr: "gap_ticks"},
		{name: "unknown step", spec: Spec{Model: "m", Steps: []string{"warp-core-breach"}}, wantErr: `unknown step "warp-core-breach"`},
		{name: "duplicate step", spec: Spec{Model: "m", Steps: []string{"recon-proc", "recon-proc"}}, wantErr: "duplicate step"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if _, err := tc.spec.Compile(); err != nil {
					t.Fatalf("Compile() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if _, err := tc.spec.Compile(); err == nil {
				t.Fatalf("Compile() accepted a spec Validate rejects")
			}
		})
	}
}

func TestCompileDefaultsGap(t *testing.T) {
	c, err := Spec{Model: "m", Steps: []string{"recon-proc"}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Gap != DefaultGapTicks {
		t.Errorf("default gap = %d, want %d", c.Gap, DefaultGapTicks)
	}
	c, err = Spec{Model: "m", Steps: []string{"recon-proc"}, GapTicks: 9}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Gap != 9 {
		t.Errorf("explicit gap = %d, want 9", c.Gap)
	}
}

func TestStepRegistrySorted(t *testing.T) {
	steps := Steps()
	if len(steps) != 12 {
		t.Fatalf("registry has %d steps, want 12 (update DESIGN.md §10 if you add steps)", len(steps))
	}
	if !sort.SliceIsSorted(steps, func(i, j int) bool { return steps[i].Name < steps[j].Name }) {
		t.Error("Steps() is not sorted by name")
	}
	names := StepNames()
	if !sort.StringsAreSorted(names) {
		t.Error("StepNames() is not sorted")
	}
	for i, st := range steps {
		if st.Name != names[i] {
			t.Errorf("Steps()[%d] = %q, StepNames()[%d] = %q", i, st.Name, i, names[i])
		}
		if st.Summary == "" {
			t.Errorf("step %q has no summary", st.Name)
		}
	}
}

func TestModelsValidateAndKillChainCoversRegistry(t *testing.T) {
	models := Models()
	if len(models) != 5 {
		t.Fatalf("Models() has %d entries, want 5", len(models))
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("built-in model %q does not validate: %v", m.Model, err)
		}
		if _, err := ModelByName(m.Model); err != nil {
			t.Errorf("ModelByName(%q): %v", m.Model, err)
		}
	}
	chain, err := ModelByName("kill-chain")
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string(nil), chain.Steps...)
	sort.Strings(got)
	if want := StepNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("kill-chain steps = %v, want the full registry %v", got, want)
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Error("ModelByName accepted an unknown model")
	}
}

// TestExecuteBaselineKillChain is the paper's "before" picture at
// campaign granularity: on a stock cluster every step of the kill
// chain leaks and nothing is ever denied.
func TestExecuteBaselineKillChain(t *testing.T) {
	chain := mustCompile(t, "kill-chain")
	c := core.MustNew(core.BaselineProfile().MustConfig(), attackTopo())
	var rng metrics.RNG
	rng.Reseed(1)
	out, rep, err := chain.Execute(c, &rng, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps != 12 || out.Leaks != 12 {
		t.Fatalf("baseline kill-chain: %d/%d steps leaked, want 12/12\n%s",
			out.Leaks, out.Steps, rep.Table().Render())
	}
	if out.ResidualLeaks != 3 {
		t.Errorf("residual leaks = %d, want 3", out.ResidualLeaks)
	}
	if !out.Success || out.StepsToFirstLeak != 1 {
		t.Errorf("Success=%v StepsToFirstLeak=%d, want true/1", out.Success, out.StepsToFirstLeak)
	}
	if out.Detected || out.DetectionTick != -1 {
		t.Errorf("baseline detected the attacker (tick %d)? nothing should deny", out.DetectionTick)
	}
	if len(out.Events) != 12 {
		t.Errorf("event log has %d entries, want 12", len(out.Events))
	}
}

// TestExecuteEnhancedKillChain is the headline claim: under the full
// measure set the campaign breaks through on no non-residual channel,
// only the three acknowledged residuals leak, and the first denial
// provides a detection signal.
func TestExecuteEnhancedKillChain(t *testing.T) {
	chain := mustCompile(t, "kill-chain")
	c := core.MustNew(core.Enhanced(), attackTopo())
	var rng metrics.RNG
	rng.Reseed(1)
	out, rep, err := chain.Execute(c, &rng, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success || out.StepsToFirstLeak != 0 {
		t.Fatalf("enhanced kill-chain broke through (first leak at step %d):\n%s",
			out.StepsToFirstLeak, rep.Table().Render())
	}
	if names := out.StepLeaks.Names(); len(names) != 0 {
		t.Errorf("non-residual step leaks under enhanced: %v", names)
	}
	if out.Leaks != 3 || out.ResidualLeaks != 3 {
		t.Errorf("leaks = %d (residual %d), want exactly the 3 residual channels\n%s",
			out.Leaks, out.ResidualLeaks, rep.Table().Render())
	}
	if !out.Detected || out.DetectionTick < out.StartTick {
		t.Errorf("no detection signal (detected=%v tick=%d start=%d)", out.Detected, out.DetectionTick, out.StartTick)
	}
}

// TestExecuteDeterministic: identical cluster, spec and RNG seed give
// identical outcomes — the per-trial contract the fleet byte-identity
// guarantee is built on.
func TestExecuteDeterministic(t *testing.T) {
	run := func() *Outcome {
		chain := mustCompile(t, "kill-chain")
		c := core.MustNew(core.Enhanced(), attackTopo())
		var rng metrics.RNG
		rng.Reseed(42)
		out, _, err := chain.Execute(c, &rng, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identically-seeded campaigns diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestExecuteGapDraws: the engine draws exactly one gap per step from
// the campaign stream no matter what the cluster does, so the
// attacker's stream consumption is a function of the spec alone.
func TestExecuteGapDraws(t *testing.T) {
	spec := Spec{Model: "probe", Steps: []string{"recon-proc", "home-probe"}, GapTicks: 5}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(core.Enhanced(), attackTopo())
	var rng, ref metrics.RNG
	rng.Reseed(7)
	ref.Reseed(7)
	if _, _, err := cs.Execute(c, &rng, 4000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(spec.Steps); i++ {
		ref.Intn(cs.Gap)
	}
	if got, want := rng.Intn(1<<30), ref.Intn(1<<30); got != want {
		t.Errorf("attack stream consumed a different draw count than len(steps)")
	}
}

// TestRunMatchesExecute: a campaign over scenery provisioned once and
// marked (Run, a pooled fleet slot's path) has the Outcome of the same
// campaign over scenery set up lazily (Execute), trial after trial of a
// cluster reset to its mark.
func TestRunMatchesExecute(t *testing.T) {
	clusters := map[string]func() *core.Cluster{
		"baseline": func() *core.Cluster { return core.MustNew(core.BaselineProfile().MustConfig(), attackTopo()) },
		"enhanced": func() *core.Cluster { return core.MustNew(core.Enhanced(), attackTopo()) },
	}
	for _, m := range core.Measures() {
		clusters["-"+m.Name] = func() *core.Cluster {
			return mustNewWithProfile(core.EnhancedProfile(), core.Without(m.Name))
		}
	}
	for name, build := range clusters {
		for _, model := range Models() {
			cs := mustCompile(t, model.Model)
			pooled := build()
			adv, err := Provision(pooled)
			if err != nil {
				t.Fatal(err)
			}
			pooled.MarkPristine()
			for seed := uint64(1); seed <= 2; seed++ {
				want, _, err := cs.Execute(build(), metrics.NewRNG(seed), 4000)
				if err != nil {
					t.Fatal(err)
				}
				want.Events = nil
				if err := pooled.Reset(); err != nil {
					t.Fatal(err)
				}
				if got := cs.Run(adv, metrics.NewRNG(seed), 4000); !reflect.DeepEqual(&got, want) {
					t.Errorf("%s on %s, seed %d: Run = %+v, Execute = %+v", model.Model, name, seed, got, *want)
				}
			}
		}
	}
}

func TestAggMergeMatchesSequentialAdd(t *testing.T) {
	chain := mustCompile(t, "kill-chain")
	outs := make([]*Outcome, 3)
	for i := range outs {
		var c *core.Cluster
		if i == 1 {
			c = core.MustNew(core.Enhanced(), attackTopo())
		} else {
			c = core.MustNew(core.BaselineProfile().MustConfig(), attackTopo())
		}
		var rng metrics.RNG
		rng.Reseed(uint64(100 + i))
		out, _, err := chain.Execute(c, &rng, 4000)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	outs[2].Inconclusive = 1 // merged like every other count
	all := NewAgg()
	for _, o := range outs {
		all.AddOutcome(o)
	}
	left, right := NewAgg(), NewAgg()
	left.AddOutcome(outs[0])
	right.AddOutcome(outs[1])
	right.AddOutcome(outs[2])
	left.Merge(right)
	aj, _ := json.Marshal(all)
	mj, _ := json.Marshal(left)
	if string(aj) != string(mj) {
		t.Errorf("merged aggregate differs from sequential:\n%s\nvs\n%s", mj, aj)
	}
	if all.Trials != 3 || all.Successes != 2 || all.Detected != 1 || all.Inconclusive != 1 {
		t.Errorf("aggregate = %d trials / %d successes / %d detected / %d inconclusive, want 3/2/1/1",
			all.Trials, all.Successes, all.Detected, all.Inconclusive)
	}
	clone := all.Clone()
	clone.StepLeaks[0] += 100
	if all.StepLeaks[0] == clone.StepLeaks[0] {
		t.Error("Clone shares its StepLeaks with the original")
	}
}

func TestAggJSONShapeStable(t *testing.T) {
	// An empty aggregate must render materialized maps ({}, not null):
	// attacked scenarios keep one JSON shape whether or not any step
	// ever leaked, and a checkpoint round-trip preserves it. The
	// inconclusive count is absent while zero.
	data, err := json.Marshal(NewAgg())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "inconclusive") {
		t.Errorf("empty Agg JSON %s carries an inconclusive count", data)
	}
	for _, want := range []string{`"step_leaks":{}`, `"channel_leaks":{}`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("empty Agg JSON %s missing %s", data, want)
		}
	}
	var back Agg
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	redata, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(redata) != string(data) {
		t.Errorf("Agg JSON does not round-trip: %s vs %s", redata, data)
	}
}

// TestLeakCountsJSON: the fixed-index leak counts marshal as the map
// of their nonzero entries would, keys sorted, and decode back; a key
// no trial counts is an error, not a silently dropped count.
func TestLeakCountsJSON(t *testing.T) {
	var a Agg
	a.StepLeaks[slices.Index(stepNames, "tmp-harvest")] = 2
	a.StepLeaks[slices.Index(stepNames, "home-probe")] = 1
	a.ChannelLeaks[slices.Index(channelNames[:], "filesystem")] = 3
	data, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int{
		"step_leaks":    {"tmp-harvest": 2, "home-probe": 1},
		"channel_leaks": {"filesystem": 3},
	}
	for field, m := range want {
		mj, _ := json.Marshal(m)
		if !strings.Contains(string(data), `"`+field+`":`+string(mj)) {
			t.Errorf("Agg JSON %s does not carry %s as the map %s", data, field, mj)
		}
	}
	var back Agg
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("Agg JSON does not round-trip: %+v vs %+v", back, a)
	}
	if err := json.Unmarshal([]byte(`{"step_leaks":{"warp-core-breach":1}}`), &back); err == nil {
		t.Error("decoded a leak count for a step the registry does not have")
	}
	if !slices.IsSorted(channelNames[:]) || !slices.IsSorted(stepNames) {
		t.Error("the leak-count index is not sorted")
	}
}

func mustCompile(t *testing.T, model string) *Compiled {
	t.Helper()
	spec, err := ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestKillChainAblationDiagonal is the E17 diagonal at step
// granularity: dropping exactly one measure from the enhanced set
// reopens exactly the non-residual steps the oracle opens without it
// (the chain's recon starts the victim's job) — for ubf that is both
// ubf-probe and portal-pivot, since the portal hop rides the
// user-bound firewall.
func TestKillChainAblationDiagonal(t *testing.T) {
	chain := mustCompile(t, "kill-chain")
	for _, m := range core.Measures() {
		t.Run("-"+m.Name, func(t *testing.T) {
			var want []string
			for _, st := range chain.Steps {
				if !st.Residual() && st.Open(atomsWithout(m.Name, LiveVictimJob)...) {
					want = append(want, st.Name)
				}
			}
			c := mustNewWithProfile(core.EnhancedProfile(), core.Without(m.Name))
			var rng metrics.RNG
			rng.Reseed(11)
			out, rep, err := chain.Execute(c, &rng, 4000)
			if err != nil {
				t.Fatal(err)
			}
			got := out.StepLeaks.Names()
			if slices.Sort(want); !slices.Equal(got, want) {
				t.Errorf("-%s reopened %v, want %v\n%s", m.Name, got, want, rep.Table().Render())
			}
		})
	}
}
