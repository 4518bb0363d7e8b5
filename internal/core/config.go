// Package core assembles the complete simulated HPC system and
// implements the paper's primary contribution: the *enhanced user
// separation* configuration — the coordinated set of measures across
// processes, scheduler, filesystems, network, web portal,
// accelerators and containers that makes "every user feel like they
// are running on a personal HPC" (paper abstract).
//
// The measures are first-class values. Each §IV measure is a
// core.Measure in a package registry (Measures, MeasureByName): a
// name, the paper section it comes from, the Config mutation it
// applies, and a validation hook that rejects configurations which
// half-apply it. A Profile is a base Config plus an ordered measure
// set; the two presets are profiles of the same stock base:
//
//   - Baseline()  = BaselineProfile(): no measures — the stock
//     multi-tenant Linux HPC system the paper argues against;
//   - Enhanced()  = EnhancedProfile(): the full registry — hidepid=2
//     with the seepid exemption, Slurm PrivateData + user-based
//     whole-node scheduling + pam_slurm, smask + ACL restriction +
//     hardened homes, protected symlinks, the User-Based Firewall,
//     identity-preserving portal forwarding, GPU device binding +
//     epilog clearing, and restricted encapsulation containers.
//
// Clusters are built with New(cfg, topo) or, for composed and
// ablated variants, NewWithProfile(profile, opts...) with the
// functional options WithTopology, WithMeasures, Without and
// WithName. Every construction path runs Config.Validate, so
// incoherent states (a seepid exemption with hidepid off, smask bits
// without the smask patch) fail loudly. Config.Diff labels what
// changed between two configurations — the ablation sweep in
// internal/experiments (E16) is built on exactly these pieces.
package core

import (
	"fmt"

	"repro/internal/procfs"
	"repro/internal/sched"
)

// Config is the full separation configuration of a cluster. Prefer
// deriving one from a Profile (which validates) over hand-editing
// fields; direct field mutation remains supported for experiment
// sweeps, and New validates the result either way.
type Config struct {
	Name string

	// Processes (§IV-A).
	HidePID       procfs.HidePID
	SeepidEnabled bool // support staff may elevate into the exempt gid

	// Scheduler (§IV-B).
	PrivateData bool
	Policy      sched.SharingPolicy
	PamSlurm    bool

	// Filesystems (§IV-C).
	SmaskEnabled bool
	Smask        uint32
	ACLRestrict  bool
	// HardenedHomes creates home directories root-owned and
	// group-owned by the user-private group (mode 0770), so users
	// cannot open their own top-level home to the world. Baseline
	// systems create user-owned, world-searchable 0755 homes.
	HardenedHomes bool
	// ProtectedSymlinks enables the fs.protected_symlinks sysctl
	// semantics in world-writable sticky directories.
	ProtectedSymlinks bool

	// Network (§IV-D).
	UBFEnabled       bool
	UBFCacheVerdicts bool

	// Portal (§IV-E). PortalUserForward makes the gateway dial each
	// forwarded hop as the AUTHENTICATED user, so the UBF verdict on
	// the compute node is the end user's own. Off, the portal behaves
	// like a pre-portal ad-hoc tunnel: hops run as the route owner,
	// and any portal user reaches any registered app.
	PortalUserForward bool

	// Accelerators (§IV-F).
	GPUAssignPerms bool
	GPUClear       bool

	// Containers (§IV-G).
	ContainerRestrict bool
}

// Validate rejects incoherent configurations: intrinsic range checks
// first, then every registered measure's validation hook (each hook
// owns the cross-field rules for its slice of the Config, e.g. the
// hidepid measure vetoes a seepid exemption with hidepid off).
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("config has no Name (profiles name their configs; literals must too)")
	}
	if c.HidePID < procfs.HidePIDOff || c.HidePID > procfs.HidePIDInvis {
		return fmt.Errorf("HidePID %d out of range [0,2]", int(c.HidePID))
	}
	switch c.Policy {
	case sched.PolicyShared, sched.PolicyExclusive, sched.PolicyUserWholeNode:
	default:
		return fmt.Errorf("unknown scheduling policy %d", int(c.Policy))
	}
	for _, m := range Measures() {
		if m.Validate == nil {
			continue
		}
		if err := m.Validate(c); err != nil {
			return fmt.Errorf("measure %s (%s): %w", m.Name, m.Section, err)
		}
	}
	return nil
}

// Diff returns one human-readable line per field (Name excluded)
// where c and other disagree, in struct order: "Policy: shared ->
// user-wholenode". The labels are what the ablation tables and
// -ablate CLI output print; TestConfigDiffCoversEveryField guards
// the field list against drift.
func (c Config) Diff(other Config) []string {
	var d []string
	add := func(field string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: %v -> %v", field, a, b))
		}
	}
	add("HidePID", c.HidePID, other.HidePID)
	add("SeepidEnabled", c.SeepidEnabled, other.SeepidEnabled)
	add("PrivateData", c.PrivateData, other.PrivateData)
	add("Policy", c.Policy, other.Policy)
	add("PamSlurm", c.PamSlurm, other.PamSlurm)
	add("SmaskEnabled", c.SmaskEnabled, other.SmaskEnabled)
	if c.Smask != other.Smask {
		d = append(d, fmt.Sprintf("Smask: %04o -> %04o", c.Smask, other.Smask))
	}
	add("ACLRestrict", c.ACLRestrict, other.ACLRestrict)
	add("HardenedHomes", c.HardenedHomes, other.HardenedHomes)
	add("ProtectedSymlinks", c.ProtectedSymlinks, other.ProtectedSymlinks)
	add("UBFEnabled", c.UBFEnabled, other.UBFEnabled)
	add("UBFCacheVerdicts", c.UBFCacheVerdicts, other.UBFCacheVerdicts)
	add("PortalUserForward", c.PortalUserForward, other.PortalUserForward)
	add("GPUAssignPerms", c.GPUAssignPerms, other.GPUAssignPerms)
	add("GPUClear", c.GPUClear, other.GPUClear)
	add("ContainerRestrict", c.ContainerRestrict, other.ContainerRestrict)
	return d
}

// Enhanced returns the paper's deployed configuration: the stock
// base plus every measure in the §IV registry (EnhancedProfile()).
func Enhanced() Config {
	return EnhancedProfile().MustConfig()
}

// Topology describes cluster geometry. The JSON tags are the wire
// form fleet scenario files use.
type Topology struct {
	ComputeNodes int   `json:"compute_nodes"`
	LoginNodes   int   `json:"login_nodes"`
	CoresPerNode int   `json:"cores_per_node"`
	MemPerNode   int64 `json:"mem_per_node"`
	GPUsPerNode  int   `json:"gpus_per_node"`
}

// Validate rejects degenerate geometries; New refuses to build a
// cluster from them.
func (t Topology) Validate() error {
	if t.ComputeNodes < 1 {
		return fmt.Errorf("topology needs at least 1 compute node (got %d)", t.ComputeNodes)
	}
	if t.CoresPerNode < 1 {
		return fmt.Errorf("topology needs at least 1 core per node (got %d)", t.CoresPerNode)
	}
	if t.MemPerNode < 1 {
		return fmt.Errorf("topology needs positive memory per node (got %d)", t.MemPerNode)
	}
	if t.LoginNodes < 0 {
		return fmt.Errorf("negative login node count %d", t.LoginNodes)
	}
	if t.GPUsPerNode < 0 {
		return fmt.Errorf("negative GPU count %d", t.GPUsPerNode)
	}
	return nil
}

// DefaultTopology is a small but representative cluster: 8 compute
// nodes with 16 cores and 2 GPUs each, plus 2 login nodes.
func DefaultTopology() Topology {
	return Topology{
		ComputeNodes: 8,
		LoginNodes:   2,
		CoresPerNode: 16,
		MemPerNode:   64 << 30,
		GPUsPerNode:  2,
	}
}
