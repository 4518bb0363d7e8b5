package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestCampaignJSONRoundTrip(t *testing.T) {
	for _, c := range Presets() {
		data, err := EncodeCampaign(c)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name, err)
		}
		back, err := DecodeCampaign(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if !reflect.DeepEqual(c, back) {
			t.Errorf("%s: round trip changed the campaign:\n%+v\nvs\n%+v", c.Name, c, back)
		}
	}
}

func TestDecodeCampaignRejectsUnknownFields(t *testing.T) {
	_, err := DecodeCampaign(strings.NewReader(`{"name":"x","scenarios":[{"name":"s","profile":"enhanced","horizn":5}]}`))
	if err == nil || !strings.Contains(err.Error(), "horizn") {
		t.Errorf("typo field accepted: %v", err)
	}
}

func TestCampaignValidate(t *testing.T) {
	base := smokeCampaign()
	if err := base.Validate(); err != nil {
		t.Fatalf("smoke preset invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Campaign){
		"no name":           func(c *Campaign) { c.Name = "" },
		"no scenarios":      func(c *Campaign) { c.Scenarios = nil },
		"duplicate names":   func(c *Campaign) { c.Scenarios[1].Name = c.Scenarios[0].Name },
		"unnamed scenario":  func(c *Campaign) { c.Scenarios[0].Name = "" },
		"unknown profile":   func(c *Campaign) { c.Scenarios[0].Profile = "turbo" },
		"unknown measure":   func(c *Campaign) { c.Scenarios[0].Ablate = []string{"warp-drive"} },
		"baseline ablation": func(c *Campaign) { c.Scenarios[1].Ablate = []string{"ubf"} }, // baseline has no measures to drop
		"unknown policy":    func(c *Campaign) { c.Scenarios[0].Policy = "round-robin" },
		"bad topology": func(c *Campaign) {
			c.Scenarios[0].Topology = core.Topology{ComputeNodes: -1, LoginNodes: 1, CoresPerNode: 1, MemPerNode: 1}
		},
		"bad workload":    func(c *Campaign) { c.Scenarios[0].Workload.Users = 0 },
		"no horizon":      func(c *Campaign) { c.Scenarios[0].Horizon = 0 },
		"no replications": func(c *Campaign) { c.Scenarios[0].Replications = 0 },
	} {
		c := smokeCampaign()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s: %v", c.Name, err)
		}
		if c.Trials() < 2 {
			t.Errorf("preset %s: only %d trials", c.Name, c.Trials())
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset resolved")
	}
	if got := MustPreset(PresetE4PolicyGrid); len(got.Scenarios) != 3 {
		t.Errorf("e4 grid has %d scenarios, want 3", len(got.Scenarios))
	}
	// One control + one scenario per registry measure.
	if got := MustPreset(PresetE16AblationDrain); len(got.Scenarios) != 1+len(core.Measures()) {
		t.Errorf("e16 drain has %d scenarios, want %d", len(got.Scenarios), 1+len(core.Measures()))
	}
}

func TestTrialSeedKeying(t *testing.T) {
	a := Scenario{Name: "a"}
	b := Scenario{Name: "b"}
	if a.TrialSeed(1, 0) == a.TrialSeed(1, 1) {
		t.Error("replications share a seed")
	}
	if a.TrialSeed(1, 0) == b.TrialSeed(1, 0) {
		t.Error("scenarios share a seed")
	}
	if a.TrialSeed(1, 0) == a.TrialSeed(2, 0) {
		t.Error("master seed ignored")
	}
	if a.TrialSeed(1, 3) != a.TrialSeed(1, 3) {
		t.Error("seed not a pure function")
	}
}

// The acceptance criterion of the subsystem: identical bytes out for
// any worker count — pinned on the smoke preset AND the full
// E16-ablation preset at workers 1/4/8. Run under -race this also
// exercises the pool for data races.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, camp := range []Campaign{smokeCampaign(), e16AblationDrainCampaign()} {
		var want []byte
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Run(camp, Options{Workers: workers, Seed: 7})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", camp.Name, workers, err)
			}
			got, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s workers=%d produced different bytes:\n%s\nvs workers=1:\n%s", camp.Name, workers, got, want)
			}
		}
	}
}

func TestRunAggregates(t *testing.T) {
	camp := smokeCampaign()
	res, err := Run(camp, Options{Workers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign != camp.Name || res.Seed != 11 {
		t.Errorf("result header = %q seed %d", res.Campaign, res.Seed)
	}
	if len(res.Scenarios) != len(camp.Scenarios) {
		t.Fatalf("scenario count %d, want %d", len(res.Scenarios), len(camp.Scenarios))
	}
	for i, s := range res.Scenarios {
		spec := camp.Scenarios[i]
		if s.Name != spec.Name {
			t.Errorf("scenario %d order: got %q want %q", i, s.Name, spec.Name)
		}
		if s.Replications != spec.Replications || s.Util.Count != int64(spec.Replications) ||
			s.Makespan.Count != int64(spec.Replications) || histCount(s.MakespanHist) != int64(spec.Replications) {
			t.Errorf("%s: aggregate counts %d/%d/%d/%d, want %d", s.Name,
				s.Replications, s.Util.Count, s.Makespan.Count, histCount(s.MakespanHist), spec.Replications)
		}
		if s.Util.Mean <= 0 || s.Util.Mean > 1 {
			t.Errorf("%s: util mean %v outside (0, 1]", s.Name, s.Util.Mean)
		}
		if s.Unfinished != 0 {
			t.Errorf("%s: %d jobs unfinished at the horizon", s.Name, s.Unfinished)
		}
	}
	// The smoke mix injects OOM faults: the shared-policy baseline
	// must see cross-user cofailures the enhanced (wholenode) config
	// cannot have.
	byName := map[string]*ScenarioResult{}
	for _, s := range res.Scenarios {
		byName[s.Name] = s
	}
	if enh := byName["smoke/enhanced"]; enh.Cofailures != 0 {
		t.Errorf("enhanced (user-wholenode) saw %d cross-user cofailures", enh.Cofailures)
	}
}

func TestScenarioResultMergeGuards(t *testing.T) {
	a := &ScenarioResult{Name: "a"}
	if err := a.Merge(&ScenarioResult{Name: "b"}); err == nil {
		t.Error("cross-scenario merge accepted")
	}
}

func TestInfeasibleWorkloadRejectedAtLoadTime(t *testing.T) {
	// Infeasible campaigns must die in Validate (and therefore at the
	// top of Run), with the scenario named — never mid-run on a
	// worker.
	overCores := smokeCampaign()
	overCores.Scenarios = overCores.Scenarios[:1]
	overCores.Scenarios[0].Workload.MinCores = 4*8 + 1
	overCores.Scenarios[0].Workload.MaxCores = 4*8 + 1
	if err := overCores.Validate(); err == nil ||
		!strings.Contains(err.Error(), overCores.Scenarios[0].Name) {
		t.Errorf("over-cores campaign: want contextual validation error, got %v", err)
	}
	if _, err := Run(overCores, Options{Workers: 4, Seed: 1}); err == nil {
		t.Errorf("Run accepted an infeasible campaign")
	}

	overMem := smokeCampaign()
	overMem.Scenarios[1].Workload.MemB = 2 << 30 // > the 1<<30 MemPerNode: never places
	if err := overMem.Validate(); err == nil ||
		!strings.Contains(err.Error(), overMem.Scenarios[1].Name) {
		t.Errorf("over-memory campaign: want contextual validation error, got %v", err)
	}
}

// A policy that does not parse is an error on every path, including
// the compile step that runs without Validate in front of it: never a
// panic, never the profile's default policy.
func TestUnparsedPolicyIsAnError(t *testing.T) {
	camp := smokeCampaign()
	camp.Scenarios[0].Policy = "bogus"
	if _, err := Run(camp, Options{Workers: 1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("Run: want an error naming the policy, got %v", err)
	}
	if _, err := compileCampaign(camp, 1); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("compileCampaign without Validate: want an error naming the policy, got %v", err)
	}
}

// Non-positive replication counts and horizons must be rejected
// explicitly — naming the field, the scenario and the offending value
// — and before any profile resolution (an invalid profile must not
// mask the count error).
func TestScenarioValidateRejectsDegenerateCounts(t *testing.T) {
	base := smokeCampaign().Scenarios[0]
	for _, tc := range []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"zero replications", func(s *Scenario) { s.Replications = 0 }, "replications"},
		{"negative replications", func(s *Scenario) { s.Replications = -3 }, "replications"},
		{"zero horizon", func(s *Scenario) { s.Horizon = 0 }, "horizon"},
		{"negative horizon", func(s *Scenario) { s.Horizon = -50 }, "horizon"},
		{"degenerate count beats bad profile", func(s *Scenario) { s.Replications = -1; s.Profile = "turbo" }, "replications"},
	} {
		s := base
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), s.Name) {
			t.Errorf("%s: error %q does not name the field %q and scenario %q", tc.name, err, tc.want, s.Name)
		}
	}
}

// histCount is the number of samples h counted, out of range included.
func histCount(h *metrics.Histogram) int64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}
