package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// legacyEnhanced is the PR-2-era Enhanced() literal, frozen here
// field for field. The registry-derived preset must reproduce it
// exactly — this is the guard against measure-registry drift.
func legacyEnhanced() Config {
	return Config{
		Name:              "enhanced",
		HidePID:           procfs.HidePIDInvis,
		SeepidEnabled:     true,
		PrivateData:       true,
		Policy:            sched.PolicyUserWholeNode,
		PamSlurm:          true,
		SmaskEnabled:      true,
		Smask:             vfs.DefaultSmask,
		ACLRestrict:       true,
		HardenedHomes:     true,
		ProtectedSymlinks: true,
		UBFEnabled:        true,
		UBFCacheVerdicts:  true,
		PortalUserForward: true,
		GPUAssignPerms:    true,
		GPUClear:          true,
		ContainerRestrict: true,
	}
}

func TestEnhancedViaRegistryMatchesLegacyLiteral(t *testing.T) {
	got, want := Enhanced(), legacyEnhanced()
	if got != want {
		t.Fatalf("Enhanced() drifted from the legacy literal:\n%s",
			strings.Join(want.Diff(got), "\n"))
	}
	if diff := want.Diff(got); len(diff) != 0 {
		t.Errorf("Diff(legacy, Enhanced()) = %v, want empty", diff)
	}
}

func TestBaselineViaProfile(t *testing.T) {
	b := BaselineProfile().MustConfig()
	want := Config{Name: "baseline", HidePID: procfs.HidePIDOff, Policy: sched.PolicyShared}
	if b != want {
		t.Errorf("BaselineProfile().MustConfig() = %+v", b)
	}
	// Baseline → Enhanced is exactly the measures' field footprint.
	if n := len(b.Diff(Enhanced())); n == 0 {
		t.Errorf("baseline/enhanced diff empty")
	}
}

// TestWithoutThenWithMeasuresRoundTrip: for every registry measure,
// ablating it changes the config, and re-adding it restores the
// enhanced configuration exactly (modulo the derived name) — the
// registry's Apply functions cover disjoint field sets and lose no
// state.
func TestWithoutThenWithMeasuresRoundTrip(t *testing.T) {
	enhanced := Enhanced()
	for _, m := range Measures() {
		t.Run(m.Name, func(t *testing.T) {
			ablated, _, err := ResolveProfile(EnhancedProfile(), Without(m.Name))
			if err != nil {
				t.Fatal(err)
			}
			acfg, err := ablated.Config()
			if err != nil {
				t.Fatalf("ablated profile invalid: %v", err)
			}
			if wantName := "enhanced-no-" + m.Name; acfg.Name != wantName {
				t.Errorf("derived name %q, want %q", acfg.Name, wantName)
			}
			if len(enhanced.Diff(acfg)) == 0 {
				t.Errorf("ablating %s changed nothing", m.Name)
			}
			restored, _, err := ResolveProfile(EnhancedProfile(),
				Without(m.Name), WithMeasures(m))
			if err != nil {
				t.Fatal(err)
			}
			restored.Name = enhanced.Name
			rcfg, err := restored.Config()
			if err != nil {
				t.Fatal(err)
			}
			if rcfg != enhanced {
				t.Errorf("round-trip lost state:\n%s", strings.Join(enhanced.Diff(rcfg), "\n"))
			}
		})
	}
}

// TestConfigDiffCoversEveryField flips each exported Config field (by
// reflection) and asserts Diff reports it — the explicit field list
// in Diff cannot silently fall behind the struct.
func TestConfigDiffCoversEveryField(t *testing.T) {
	base := Enhanced()
	tp := reflect.TypeOf(base)
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if f.Name == "Name" {
			continue // identity label, deliberately not a diff line
		}
		mutated := base
		v := reflect.ValueOf(&mutated).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() - 1)
		case reflect.Uint32:
			v.SetUint(v.Uint() + 1)
		default:
			t.Fatalf("field %s has kind %v — teach this test about it", f.Name, v.Kind())
		}
		diff := base.Diff(mutated)
		found := false
		for _, line := range diff {
			if strings.HasPrefix(line, f.Name+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("flipping %s not reported by Diff (got %v)", f.Name, diff)
		}
	}
}

func TestDiffRendersSymbolicNames(t *testing.T) {
	d := Enhanced().Diff(BaselineProfile().MustConfig())
	joined := strings.Join(d, "\n")
	for _, want := range []string{
		"HidePID: invisible -> off",
		"Policy: user-wholenode -> shared",
		"Smask: 0007 -> 0000",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff missing %q:\n%s", want, joined)
		}
	}
}

func TestValidateRejectsIncoherentConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		frag   string // must appear in the error
	}{
		{"seepid-without-hidepid", func(c *Config) { c.HidePID = procfs.HidePIDOff }, "seepid"},
		{"smask-bits-without-patch", func(c *Config) { c.SmaskEnabled = false }, "SmaskEnabled is false"},
		{"smask-patch-without-bits", func(c *Config) { c.Smask = 0 }, "zero mask"},
		{"hidepid-out-of-range", func(c *Config) { c.HidePID = 9 }, "out of range"},
		{"unknown-policy", func(c *Config) { c.Policy = 42 }, "policy"},
		{"unnamed", func(c *Config) { c.Name = "" }, "no Name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Enhanced()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.frag)
			}
			// New must refuse the same config.
			if _, err := New(cfg, smallTopo()); err == nil {
				t.Errorf("New accepted invalid config %s", tc.name)
			}
		})
	}
	if err := Enhanced().Validate(); err != nil {
		t.Errorf("Enhanced() invalid: %v", err)
	}
	if err := BaselineProfile().MustConfig().Validate(); err != nil {
		t.Errorf("BaselineProfile().MustConfig() invalid: %v", err)
	}
}

// TestNewRejectsDegenerateTopology: the latent footgun — New used to
// silently build a zero-node cluster from Topology{}.
func TestNewRejectsDegenerateTopology(t *testing.T) {
	if _, err := New(Enhanced(), Topology{}); err == nil ||
		!strings.Contains(err.Error(), "compute node") {
		t.Errorf("New(cfg, Topology{}) err = %v, want compute-node error", err)
	}
	bad := []Topology{
		{ComputeNodes: 4},                  // no cores
		{ComputeNodes: 4, CoresPerNode: 8}, // no memory
		{ComputeNodes: 4, CoresPerNode: 8, MemPerNode: 1, LoginNodes: -1},
		{ComputeNodes: 4, CoresPerNode: 8, MemPerNode: 1, GPUsPerNode: -2},
	}
	for _, topo := range bad {
		if _, err := New(Enhanced(), topo); err == nil {
			t.Errorf("New accepted degenerate topology %+v", topo)
		}
	}
	if err := smallTopo().Validate(); err != nil {
		t.Errorf("smallTopo invalid: %v", err)
	}
}

func TestNewWithProfileOptions(t *testing.T) {
	c, err := NewWithProfile(EnhancedProfile(),
		WithTopology(smallTopo()), Without("ubf"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Name != "enhanced-no-ubf" || c.Cfg.UBFEnabled || !c.Cfg.PrivateData {
		t.Errorf("cfg = %+v", c.Cfg)
	}
	if len(c.Compute) != smallTopo().ComputeNodes {
		t.Errorf("topology option ignored: %d compute nodes", len(c.Compute))
	}
	// Unknown measure name → descriptive error.
	if _, err := NewWithProfile(EnhancedProfile(), Without("selinux")); err == nil ||
		!strings.Contains(err.Error(), "selinux") {
		t.Errorf("Without(unknown) err = %v", err)
	}
	// Registry measure absent from the profile → error, not a no-op.
	if _, err := NewWithProfile(BaselineProfile(), Without("ubf")); err == nil ||
		!strings.Contains(err.Error(), "does not include") {
		t.Errorf("Without on baseline err = %v", err)
	}
	// Custom one-off measures compose (the E4-style policy sweep).
	shared := Measure{Name: "policy-shared", Apply: func(cfg *Config) {
		cfg.Policy = sched.PolicyShared
	}}
	c2, err := NewWithProfile(EnhancedProfile(),
		WithTopology(smallTopo()), WithMeasures(shared))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Cfg.Policy != sched.PolicyShared || !c2.Cfg.PamSlurm {
		t.Errorf("custom measure: %+v", c2.Cfg)
	}
	if c2.Cfg.Name != "enhanced+policy-shared" {
		t.Errorf("derived name %q", c2.Cfg.Name)
	}
}

func TestMeasureAndProfileLookups(t *testing.T) {
	if len(Measures()) != 9 {
		t.Errorf("registry has %d measures, want 9 (update DESIGN.md + E16 if deliberate)", len(Measures()))
	}
	m, err := MeasureByName("ubf")
	if err != nil || m.Section != "§IV-D" {
		t.Errorf("MeasureByName(ubf) = %+v, %v", m, err)
	}
	if _, err := MeasureByName("nope"); err == nil {
		t.Errorf("unknown measure resolved")
	}
	p, err := ProfileByName("enhanced")
	has := func(name string) bool {
		return slices.ContainsFunc(p.Measures, func(m Measure) bool { return m.Name == name })
	}
	if err != nil || !has("hidepid") || has("nope") {
		t.Errorf("ProfileByName(enhanced) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("hardened"); err == nil {
		t.Errorf("unknown profile resolved")
	}
	// Every registry measure applied to the stock base must validate
	// on its own atop the base (measures are individually deployable).
	for _, m := range Measures() {
		cfg := stockBase()
		cfg.Name = "solo-" + m.Name
		m.Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("measure %s alone is invalid: %v", m.Name, err)
		}
	}
}
