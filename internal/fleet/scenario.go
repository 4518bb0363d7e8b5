// Package fleet executes simulation campaigns: grids of independent
// trials (scenarios × replications) sharded across worker
// goroutines. A Scenario is a declarative, JSON-serializable spec —
// profile + ablations from the core measure registry, topology,
// workload mix, horizon, replication count — so campaigns are data,
// not code. The executor (run.go) derives every trial's RNG stream
// from (scenario name, replication index) via metrics.StreamSeed and
// reduces shard results in trial-index order, which makes campaign
// output bit-identical regardless of worker count or completion
// order: `fleetrun -workers 1` and `-workers 8` produce the same
// bytes. The same contract makes campaigns fault-tolerant rather
// than merely restartable: runs checkpoint per-trial aggregates to
// an append-only journal and resume byte-identically
// (checkpoint.go, journal.go), panicking trials are isolated, retried under
// their unchanged stream seed and degraded to counted failures
// instead of killing the campaign (run.go), and a deterministic
// chaos injector exercises all of it (faults.go). Built-in presets
// (presets.go) re-express the paper's E4 policy grid and E16
// ablation matrix as campaigns.
package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Scenario is one cell of a campaign grid: a cluster configuration
// plus a workload, replicated Replications times under independent
// RNG streams.
type Scenario struct {
	// Name identifies the scenario AND keys its RNG streams: trials
	// are seeded by (Name, replication index), so renaming a scenario
	// intentionally changes its draws while reordering scenarios in
	// the campaign does not. Names must be unique within a campaign.
	Name string `json:"name"`
	// Profile is a core profile name ("baseline", "enhanced").
	Profile string `json:"profile"`
	// Ablate lists registry measures dropped from the profile
	// (core.Without), the E16 lever.
	Ablate []string `json:"ablate,omitempty"`
	// Policy optionally overrides the node-sharing policy ("shared",
	// "exclusive", "user-wholenode"), the E4 lever.
	Policy string `json:"policy,omitempty"`
	// Topology is the cluster geometry; the zero value means
	// core.DefaultTopology.
	Topology core.Topology `json:"topology,omitzero"`
	// Workload is the job mix every trial submits.
	Workload workload.MixSpec `json:"workload"`
	// Attack optionally runs an adversary campaign concurrently with
	// the mix: after submission the attacker executes its steps
	// against the live cluster, paced by its own RNG stream (derived
	// from the trial seed via attack.StreamIndex, so the mix's draws
	// are untouched). Trials then carry an attack.Agg aggregate next
	// to the drain statistics. Nil means no adversary — and a JSON
	// encoding byte-identical to pre-attack campaigns.
	Attack *attack.Spec `json:"attack,omitempty"`
	// Horizon caps each trial at this many scheduler ticks.
	Horizon int `json:"horizon"`
	// Replications is how many independently-seeded trials to run.
	Replications int `json:"replications"`
}

// Campaign is a named set of scenarios — the unit fleetrun loads,
// runs and reports on.
type Campaign struct {
	Name      string     `json:"name"`
	Scenarios []Scenario `json:"scenarios"`
}

// topology returns the scenario's geometry, defaulting the zero
// value.
func (s Scenario) topology() core.Topology {
	if s.Topology == (core.Topology{}) {
		return core.DefaultTopology()
	}
	return s.Topology
}

// Validate rejects scenarios that could not run: unknown profiles,
// measures or policies, degenerate geometry or workload, and
// non-positive horizons or replication counts. It dry-runs the full
// profile resolution so a campaign file fails at load time, not
// mid-run on worker 7.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fleet: scenario has no name (names key the RNG streams)")
	}
	// Degenerate trial counts and horizons are rejected up front —
	// before any profile resolution — with explicit errors: a zero or
	// negative Replications would silently produce an empty scenario
	// result (and a zero-trial campaign), and a non-positive Horizon
	// would make every trial return without simulating a tick.
	if s.Replications <= 0 {
		return fmt.Errorf("fleet: scenario %q: replications must be >= 1 (got %d)", s.Name, s.Replications)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("fleet: scenario %q: horizon must be >= 1 tick (got %d)", s.Name, s.Horizon)
	}
	opts, err := s.options()
	if err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	prof, err := core.ProfileByName(s.Profile)
	if err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	resolved, topo, err := core.ResolveProfile(prof, opts...)
	if err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	if _, err := resolved.Config(); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
	}
	// The attack spec resolves against the step registry here, so a
	// campaign file naming an unknown step fails at load time like an
	// unknown measure or an infeasible workload would.
	if s.Attack != nil {
		if err := s.Attack.Validate(); err != nil {
			return fmt.Errorf("fleet: scenario %q: %w", s.Name, err)
		}
	}
	// Feasibility against the geometry, so an impossible campaign is
	// rejected here instead of erroring (or pending forever) mid-run
	// on a worker: a job may span nodes but not exceed the cluster's
	// total cores (sched.ErrUnsatisfiable at submit), and its per-node
	// memory request must fit a node or it never places.
	if clusterCores := topo.ComputeNodes * topo.CoresPerNode; s.Workload.MaxCores > clusterCores {
		return fmt.Errorf("fleet: scenario %q: workload max_cores %d exceeds the cluster's %d cores",
			s.Name, s.Workload.MaxCores, clusterCores)
	}
	if s.Workload.MemB > topo.MemPerNode {
		return fmt.Errorf("fleet: scenario %q: workload mem_b %d exceeds mem_per_node %d (jobs could never place)",
			s.Name, s.Workload.MemB, topo.MemPerNode)
	}
	return nil
}

// options assembles the core cluster-build options the scenario
// describes. A policy that does not parse is an error, never the
// profile's default policy.
func (s Scenario) options() ([]core.Option, error) {
	opts := []core.Option{core.WithTopology(s.topology())}
	for _, name := range s.Ablate {
		opts = append(opts, core.Without(name))
	}
	if s.Policy != "" {
		pol, err := sched.ParsePolicy(s.Policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithMeasures(core.Measure{
			Name:    "fleet-policy-" + s.Policy,
			Summary: "pin the node-sharing policy for this scenario",
			Apply:   func(cfg *core.Config) { cfg.Policy = pol },
		}))
	}
	return opts, nil
}

// TrialSeed derives the RNG seed of replication rep under the given
// campaign master seed. The derivation is two StreamSeed hops —
// master → scenario stream (indexed by the name's FNV-1a hash) →
// trial stream (indexed by rep) — so it depends only on (master,
// Name, rep): not on worker count, not on scenario order, not on
// which shard runs the trial.
func (s Scenario) TrialSeed(master uint64, rep int) uint64 {
	return metrics.StreamSeed(metrics.StreamSeed(master, nameHash(s.Name)), uint64(rep))
}

// nameHash is the FNV-1a index of a scenario name into the master
// stream. The executor hoists it out of the per-trial path (the
// scenario stream is compiled once per Run); TrialSeed keeps the
// two-hop derivation as the documented public contract.
func nameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Validate checks the whole campaign: at least one scenario, unique
// scenario names (they key the RNG streams), every scenario valid.
func (c Campaign) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("fleet: campaign has no name")
	}
	if len(c.Scenarios) == 0 {
		return fmt.Errorf("fleet: campaign %q has no scenarios", c.Name)
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for _, s := range c.Scenarios {
		if seen[s.Name] {
			return fmt.Errorf("fleet: campaign %q: duplicate scenario name %q", c.Name, s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Trials returns the campaign's total trial count.
func (c Campaign) Trials() int {
	n := 0
	for _, s := range c.Scenarios {
		n += s.Replications
	}
	return n
}

// DecodeCampaign reads and validates a campaign from JSON. Unknown
// fields are an error so a typo in a scenario file fails loudly
// instead of silently running defaults.
func DecodeCampaign(r io.Reader) (Campaign, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("fleet: decoding campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// EncodeCampaign renders a campaign as indented JSON (the scenario
// file format), so presets double as authoring templates.
func EncodeCampaign(c Campaign) ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
