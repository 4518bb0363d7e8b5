package core

import (
	"fmt"
	"strings"
)

// Profile is a named, reproducible cluster configuration: a base
// Config plus an ordered set of separation measures applied on top.
// The two paper configurations are profiles — Baseline() is the
// stock base with no measures, Enhanced() is the same base with the
// full §IV registry — and ablations are profiles with entries
// removed (see NewWithProfile / Without).
type Profile struct {
	Name     string
	Base     Config
	Measures []Measure
}

// Config derives the profile's Config: base, then each measure in
// order, then the profile name; the result is validated.
func (p Profile) Config() (Config, error) {
	cfg := p.Base
	for _, m := range p.Measures {
		if m.Apply == nil {
			return Config{}, fmt.Errorf("core: profile %q: measure %q has no Apply", p.Name, m.Name)
		}
		m.Apply(&cfg)
	}
	cfg.Name = p.Name
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("core: profile %q: %w", p.Name, err)
	}
	return cfg, nil
}

// MustConfig is Config, panicking on error (for the static presets,
// which cannot fail unless the registry itself is broken).
func (p Profile) MustConfig() Config {
	cfg, err := p.Config()
	if err != nil {
		panic(err)
	}
	return cfg
}

// stockBase is the shared starting point of every profile: a
// conventional multi-tenant Linux HPC system with default
// (permissive) settings. Zero values everywhere; the explicit fields
// document the interesting defaults.
func stockBase() Config {
	return Config{
		HidePID: 0, // hidepid off: every /proc entry world-visible
		Policy:  0, // PolicyShared: any user mix per node
	}
}

// BaselineProfile is the "before" picture the paper argues against:
// the stock base with no separation measures.
func BaselineProfile() Profile {
	return Profile{Name: "baseline", Base: stockBase()}
}

// EnhancedProfile is the paper's deployed configuration: the stock
// base plus every measure of the §IV registry, in order.
func EnhancedProfile() Profile {
	return Profile{Name: "enhanced", Base: stockBase(), Measures: Measures()}
}

// Profiles returns the named profiles in comparison order
// (baseline first), the order every two-column experiment table uses.
func Profiles() []Profile {
	return []Profile{BaselineProfile(), EnhancedProfile()}
}

// ProfileByName resolves "baseline" or "enhanced".
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("core: unknown profile %q (have baseline, enhanced)", name)
}

// Option customizes NewWithProfile's cluster assembly.
type Option func(*clusterBuild)

type clusterBuild struct {
	topo   Topology
	add    []Measure
	remove []string // measure names dropped from the profile
}

// WithTopology sets the cluster geometry (default: DefaultTopology).
func WithTopology(topo Topology) Option {
	return func(b *clusterBuild) { b.topo = topo }
}

// WithMeasures adds measures to the profile's set. A measure whose
// name is already present replaces that entry in place; a new name
// (including one just dropped via Without) is applied AFTER the
// profile's own measures. The registry's measures touch disjoint
// Config fields, so for them application order never matters; a
// custom measure that overlaps registry fields must account for
// running last. Custom (non-registry) measures are welcome — that is
// how experiments compose one-off variants.
func WithMeasures(ms ...Measure) Option {
	return func(b *clusterBuild) { b.add = append(b.add, ms...) }
}

// Without drops a measure (by registry name) from the profile's set
// — the ablation lever. Unknown names are an assembly error.
func Without(name string) Option {
	return func(b *clusterBuild) { b.remove = append(b.remove, name) }
}

// ResolveProfile applies options to a profile and returns the
// resulting named profile (measure set edited, name derived) plus
// the topology to build with. NewWithProfile uses it; it is exported
// so CLIs can show the user what an option set means before
// building anything.
func ResolveProfile(p Profile, opts ...Option) (Profile, Topology, error) {
	b := clusterBuild{topo: DefaultTopology()}
	for _, opt := range opts {
		opt(&b)
	}

	measures := append([]Measure(nil), p.Measures...)
	var suffix []string
	for _, name := range b.remove {
		found := false
		for i, m := range measures {
			if m.Name == name {
				measures = append(measures[:i], measures[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			if _, err := MeasureByName(name); err != nil {
				return Profile{}, Topology{}, err
			}
			return Profile{}, Topology{}, fmt.Errorf("core: profile %q does not include measure %q", p.Name, name)
		}
		suffix = append(suffix, "-no-"+name)
	}
	for _, m := range b.add {
		replaced := false
		for i := range measures {
			if measures[i].Name == m.Name {
				measures[i] = m
				replaced = true
				break
			}
		}
		if !replaced {
			measures = append(measures, m)
			suffix = append(suffix, "+"+m.Name)
		}
	}

	return Profile{Name: p.Name + strings.Join(suffix, ""), Base: p.Base, Measures: measures}, b.topo, nil
}

// NewWithProfile assembles a cluster from a profile plus options:
//
//	c, err := core.NewWithProfile(core.EnhancedProfile(),
//	        core.WithTopology(topo),
//	        core.Without("hidepid"),           // ablate one measure
//	        core.WithName("no-proc-hiding"))   // optional label
//
// The derived Config is validated before any wiring happens, so an
// incoherent combination fails with a descriptive error instead of a
// silently misconfigured cluster.
func NewWithProfile(p Profile, opts ...Option) (*Cluster, error) {
	resolved, topo, err := ResolveProfile(p, opts...)
	if err != nil {
		return nil, err
	}
	cfg, err := resolved.Config()
	if err != nil {
		return nil, err
	}
	return New(cfg, topo)
}
