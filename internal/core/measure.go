package core

import (
	"fmt"

	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/vfs"
)

// Measure is one individually deployable separation measure from the
// paper's §IV catalogue. A measure knows how to apply itself to a
// Config (Apply) and how to veto incoherent configurations that
// half-apply it (Validate). Measures compose: a Profile is a base
// Config plus an ordered measure set, and ablation experiments build
// "enhanced minus one measure" configurations by dropping a single
// entry (see NewWithProfile / Without and experiments.E16).
type Measure struct {
	// Name is the registry key, e.g. "hidepid". Stable: experiment
	// tables, CLI -ablate flags and tests refer to measures by name.
	Name string
	// Section is the paper section that introduces the measure,
	// e.g. "§IV-A".
	Section string
	// Summary is a one-line human description for CLI listings.
	Summary string
	// Apply mutates cfg to deploy the measure.
	Apply func(cfg *Config)
	// Validate, when non-nil, rejects configurations that apply the
	// measure incoherently (e.g. a seepid exemption with hidepid
	// off). It is called by Config.Validate for EVERY registered
	// measure, applied or not — the hooks own the cross-field rules
	// for their slice of the Config.
	Validate func(cfg Config) error
}

// registry holds the paper's deployed measures in §IV order. Order
// matters twice: Profile application order, and E16 row order.
var registry = []Measure{
	{
		Name:    "hidepid",
		Section: "§IV-A",
		Summary: "mount /proc with hidepid=2 + the gid= exemption entered via seepid",
		Apply: func(cfg *Config) {
			cfg.HidePID = procfs.HidePIDInvis
			cfg.SeepidEnabled = true
		},
		Validate: func(cfg Config) error {
			if cfg.SeepidEnabled && cfg.HidePID == procfs.HidePIDOff {
				return fmt.Errorf("seepid exemption configured but hidepid is off (nothing to be exempt from)")
			}
			return nil
		},
	},
	{
		Name:    "privatedata",
		Section: "§IV-B",
		Summary: "Slurm PrivateData: users see only their own jobs and accounting",
		Apply:   func(cfg *Config) { cfg.PrivateData = true },
	},
	{
		Name:    "wholenode",
		Section: "§IV-B",
		Summary: "user-based whole-node scheduling + pam_slurm compute-node ssh gate",
		Apply: func(cfg *Config) {
			cfg.Policy = sched.PolicyUserWholeNode
			cfg.PamSlurm = true
		},
	},
	{
		Name:    "smask",
		Section: "§IV-C",
		Summary: "smask kernel patch + ACL restriction + root-owned hardened homes",
		Apply: func(cfg *Config) {
			cfg.SmaskEnabled = true
			cfg.Smask = vfs.DefaultSmask
			cfg.ACLRestrict = true
			cfg.HardenedHomes = true
		},
		Validate: func(cfg Config) error {
			if cfg.Smask != 0 && !cfg.SmaskEnabled {
				return fmt.Errorf("smask bits %04o set but SmaskEnabled is false (mask would never bind)", cfg.Smask)
			}
			if cfg.SmaskEnabled && cfg.Smask == 0 {
				return fmt.Errorf("SmaskEnabled with a zero mask blocks nothing (set Smask, e.g. vfs.DefaultSmask)")
			}
			return nil
		},
	},
	{
		Name:    "protected-symlinks",
		Section: "§IV-C",
		Summary: "fs.protected_symlinks semantics in world-writable sticky directories",
		Apply:   func(cfg *Config) { cfg.ProtectedSymlinks = true },
	},
	{
		Name:    "ubf",
		Section: "§IV-D",
		Summary: "user-based firewall: ident-backed NEW-connection verdicts + verdict cache",
		Apply: func(cfg *Config) {
			cfg.UBFEnabled = true
			cfg.UBFCacheVerdicts = true
		},
	},
	{
		Name:    "portal",
		Section: "§IV-E",
		Summary: "identity-preserving portal forwarding: every hop runs as the authenticated user",
		Apply:   func(cfg *Config) { cfg.PortalUserForward = true },
	},
	{
		Name:    "gpu",
		Section: "§IV-F",
		Summary: "prolog GPU device-permission binding + epilog memory clear",
		Apply: func(cfg *Config) {
			cfg.GPUAssignPerms = true
			cfg.GPUClear = true
		},
	},
	{
		Name:    "container",
		Section: "§IV-G",
		Summary: "encapsulation containers restricted to individually approved users",
		Apply:   func(cfg *Config) { cfg.ContainerRestrict = true },
	},
}

// Measures returns the paper's separation measures in §IV order.
// The slice is a copy; the Measure values share the registry's
// function pointers.
func Measures() []Measure {
	return append([]Measure(nil), registry...)
}

// MeasureByName resolves a registry measure, e.g. "ubf".
func MeasureByName(name string) (Measure, error) {
	for _, m := range registry {
		if m.Name == name {
			return m, nil
		}
	}
	return Measure{}, fmt.Errorf("core: unknown measure %q (have %v)", name, MeasureNames())
}

// MeasureNames lists the registry names in order, for CLI usage
// strings and error messages.
func MeasureNames() []string {
	names := make([]string, len(registry))
	for i, m := range registry {
		names[i] = m.Name
	}
	return names
}
