// Package attack models adversaries as first-class scenario data,
// symmetric to workload.MixSpec: a Spec is a strict-decoded JSON
// description of a multi-step attacker campaign — recon via /proc
// and squeue, /tmp name harvesting, portal-hop pivots, UBF probing,
// container-escape attempts, GPU-residue harvesting, and the
// abstract-socket/RDMA residual channels — composed from a registry
// of named steps.
//
// Every attempt lives in one probe catalogue (catalogue.go), run
// against one memoizing victim/attacker session (session.go). Three
// consumers read it: LeakScan runs its entries in a fixed order
// against an idle cluster, Reopened reports the E16 channel labels an
// ablation reopens, and a campaign step is a catalogue entry plus
// pacing. A campaign interleaves its steps with a live legitimate
// workload: the engine (engine.go) paces steps with gaps drawn from
// the campaign's own metrics.RNG stream and advances the shared
// cluster clock between them, so the attacker runs *concurrently* with
// the mix and every outcome is deterministic per (scenario,
// replication).
//
// The paper's Results section argues qualitatively which cross-user
// channels stay closed; campaigns turn that into measured
// distributions — attacker success rate, steps-to-first-leak, and
// detection latency (audit.Event/audit.Log make the denials
// first-class, tick-stamped observations) — rendered as the E17
// attacker-model × profile/ablation matrix in internal/experiments.
package attack

import (
	"fmt"
	"strings"
)

// DefaultGapTicks is the pacing bound when Spec.GapTicks is unset:
// before each step the attacker lies low for 1..DefaultGapTicks
// cluster ticks drawn from its RNG stream.
const DefaultGapTicks = 3

// StreamIndex is the StreamSeed index of the attacker's RNG stream
// under a trial's seed. The attacker draws from its own stream — not
// the mix's — so adding or removing attack steps never perturbs the
// workload's draws, and vice versa: the determinism contract
// factorizes per stream.
const StreamIndex = 0x61747461636b /* "attack" */

// Spec is the declarative JSON description of one attacker campaign:
// a named model executing an ordered list of registry steps. It is
// the `attack` field of a fleet.Scenario, strict-decoded like the
// rest of the campaign file (unknown fields and unknown step names
// are load-time errors, not mid-run surprises on worker 7).
type Spec struct {
	// Model names the attacker model (e.g. "insider-recon",
	// "kill-chain") — a label for tables and event logs, not a key
	// into any registry.
	Model string `json:"model"`
	// Steps is the campaign's ordered step-name list; every name must
	// exist in the step registry (see Steps). Order is the kill
	// chain: StepsToFirstLeak counts down this list.
	Steps []string `json:"steps"`
	// GapTicks bounds the random pacing between steps: before each
	// step the attacker advances the cluster 1..GapTicks ticks drawn
	// from the campaign's RNG stream. 0 means DefaultGapTicks.
	GapTicks int `json:"gap_ticks,omitempty"`
}

// Validate rejects specs that could not run: a missing model label,
// an empty or duplicated step list, unknown step names, or a
// negative gap. Unknown step names carry the full registry in the
// error, like core's unknown-measure errors.
func (s Spec) Validate() error {
	if s.Model == "" {
		return fmt.Errorf("attack: spec has no model name")
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("attack: model %q has no steps", s.Model)
	}
	if s.GapTicks < 0 {
		return fmt.Errorf("attack: model %q: gap_ticks must be >= 0 (got %d)", s.Model, s.GapTicks)
	}
	seen := make(map[string]bool, len(s.Steps))
	for _, name := range s.Steps {
		if _, err := StepByName(name); err != nil {
			return fmt.Errorf("attack: model %q: %w", s.Model, err)
		}
		if seen[name] {
			return fmt.Errorf("attack: model %q: duplicate step %q (steps-to-first-leak would double-count it)", s.Model, name)
		}
		seen[name] = true
	}
	return nil
}

// Compiled is a Spec resolved against the step registry once —
// trial-invariant, shared read-only across workers — so the per-trial
// hot path never re-validates names or re-walks the registry (the
// same hoisting discipline as fleet's compiledScenario).
type Compiled struct {
	Model string
	Steps []Step
	Gap   int
}

// Compile resolves the spec's step names. It validates first, so a
// Compiled value is runnable by construction.
func (s Spec) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Model: s.Model, Gap: s.GapTicks}
	if c.Gap == 0 {
		c.Gap = DefaultGapTicks
	}
	c.Steps = make([]Step, len(s.Steps))
	for i, name := range s.Steps {
		st, err := StepByName(name)
		if err != nil {
			return nil, err
		}
		c.Steps[i] = st
	}
	return c, nil
}

// Models returns the built-in attacker models, in listing order:
// four focused adversaries plus the full kill chain. These are the
// rows of the E17 matrix and the values of the CLIs' -attack flags.
func Models() []Spec {
	return []Spec{
		{Model: "insider-recon", Steps: []string{"recon-proc", "recon-squeue", "tmp-harvest"}},
		{Model: "data-thief", Steps: []string{"home-probe", "symlink-plant", "container-escape"}},
		{Model: "lateral-movement", Steps: []string{"node-roam", "ubf-probe", "portal-pivot", "rdma-pivot"}},
		{Model: "scavenger", Steps: []string{"tmp-harvest", "abstract-probe", "gpu-residue"}},
		{Model: "kill-chain", Steps: []string{
			"recon-proc", "recon-squeue", "tmp-harvest", "node-roam",
			"home-probe", "symlink-plant", "ubf-probe", "portal-pivot",
			"abstract-probe", "rdma-pivot", "gpu-residue", "container-escape",
		}},
	}
}

// ModelByName resolves a built-in attacker model.
func ModelByName(name string) (Spec, error) {
	for _, m := range Models() {
		if m.Model == name {
			return m, nil
		}
	}
	var names []string
	for _, m := range Models() {
		names = append(names, m.Model)
	}
	return Spec{}, fmt.Errorf("attack: unknown model %q (have %s)", name, strings.Join(names, ", "))
}
