package attack

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

func resultsByName(rep *audit.Report) map[string]audit.Result {
	out := make(map[string]audit.Result, len(rep.Results))
	for _, r := range rep.Results {
		out[r.Probe.Name] = r
	}
	return out
}

func TestLeakScanBaselineLeaksEverywhere(t *testing.T) {
	// The paper's "before" picture: every channel in §IV is open on a
	// stock system.
	c := core.MustNew(core.Baseline(), attackTopo())
	rep, err := LeakScan(c)
	if err != nil {
		t.Fatal(err)
	}
	unexpected, residual := rep.Leaks()
	if residual != 3 {
		t.Errorf("baseline residual leaks = %d, want 3", residual)
	}
	if unexpected == 0 {
		t.Fatalf("baseline shows no leaks at all?\n%s", rep.Table().Render())
	}
	byName := resultsByName(rep)
	for _, name := range []string{
		"ps-foreign-visible", "cmdline-secret-read",
		"squeue-foreign-job", "ssh-roam-to-victim-node",
		"home-file-read", "chmod-world-readable", "acl-grant-to-stranger",
		"tmp-content-read", "tmp-symlink-planting", "cross-user-dial", "rdma-tcp-cm-qp",
		"portal-cross-user-forward", "gpu-memory-residue",
		"container-home-read",
	} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("probe %q missing", name)
			continue
		}
		if !r.Leaked {
			t.Errorf("baseline: probe %q unexpectedly closed (%s)", name, r.Detail)
		}
	}
}

func TestLeakScanEnhancedClosesAllButResidual(t *testing.T) {
	// The paper's headline result (§V): under the enhanced
	// configuration every cross-user channel is closed except the
	// three acknowledged residuals.
	c := core.MustNew(core.Enhanced(), attackTopo())
	rep, err := LeakScan(c)
	if err != nil {
		t.Fatal(err)
	}
	unexpected, residual := rep.Leaks()
	if unexpected != 0 {
		t.Fatalf("enhanced: %d unexpected leaks:\n%s", unexpected, rep.Table().Render())
	}
	if residual != 3 {
		t.Errorf("enhanced residual channels = %d, want exactly 3 (tmp names, abstract sockets, native-CM RDMA)", residual)
	}
	byName := resultsByName(rep)
	for _, name := range []string{"tmp-filename-listing", "abstract-socket-send", "rdma-native-cm-qp"} {
		r := byName[name]
		if !r.Leaked || !r.Probe.Residual {
			t.Errorf("residual probe %q: leaked=%v residual=%v (%s)", name, r.Leaked, r.Probe.Residual, r.Detail)
		}
	}
}

func TestLeakScanProbeCountStable(t *testing.T) {
	c := core.MustNew(core.Enhanced(), attackTopo())
	rep, err := LeakScan(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 17 {
		t.Errorf("probe count = %d, want 17 (update DESIGN.md if you add probes)", len(rep.Results))
	}
}

func TestLeakScanAblations(t *testing.T) {
	// Dropping exactly one measure (or one field of one) must re-open
	// exactly the channels it guards — the per-measure attribution of
	// §IV. Measure-granular ablations go through the registry
	// (Without); finer-than-a-measure variants mutate a single field
	// and must still pass Validate.
	cases := []struct {
		name     string
		ablate   []string           // measures dropped via Without
		mutate   func(*core.Config) // finer-grained coherent field flips
		reopened []string
	}{
		{name: "no-hidepid", ablate: []string{"hidepid"},
			reopened: []string{"ps-foreign-visible", "cmdline-secret-read"}},
		{name: "no-privatedata", ablate: []string{"privatedata"},
			reopened: []string{"squeue-foreign-job"}},
		{name: "no-pam", mutate: func(cfg *core.Config) { cfg.PamSlurm = false },
			reopened: []string{"ssh-roam-to-victim-node"}},
		// Dropping the smask patch alone (ACLs + hardened homes stay)
		// reopens only the world-bit paths...
		{name: "no-smask-patch", mutate: func(cfg *core.Config) {
			cfg.SmaskEnabled = false
			cfg.Smask = 0
		}, reopened: []string{"chmod-world-readable", "tmp-content-read"}},
		// ...while ablating the whole §IV-C measure also reopens the
		// home and stranger-ACL paths its other halves guard — and,
		// because containers pass the host filesystem through (§IV-G),
		// the same home read succeeds from inside a container.
		{name: "no-smask-measure", ablate: []string{"smask"},
			reopened: []string{"chmod-world-readable", "tmp-content-read",
				"home-file-read", "acl-grant-to-stranger", "container-home-read"}},
		{name: "no-ubf", ablate: []string{"ubf"},
			reopened: []string{"cross-user-dial", "rdma-tcp-cm-qp", "portal-cross-user-forward"}},
		// Without the identity-preserving portal measure the gateway
		// forwards as the route owner, so the UBF waves the hop
		// through for ANY authenticated portal user.
		{name: "no-portal", ablate: []string{"portal"},
			reopened: []string{"portal-cross-user-forward"}},
		// The GPU ablation also drops to the shared policy: under
		// user-wholenode the attacker never colocates with the
		// victim's GPU, so whole-node scheduling masks the missing
		// epilog clear — defense in depth working as the paper says.
		{name: "no-gpu-clear", mutate: func(cfg *core.Config) {
			cfg.GPUClear = false
			cfg.GPUAssignPerms = false
			cfg.Policy = sched.PolicyShared
		}, reopened: []string{"gpu-memory-residue"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []core.Option{core.WithName(tc.name)}
			for _, m := range tc.ablate {
				opts = append(opts, core.Without(m))
			}
			resolved, _, err := core.ResolveProfile(core.EnhancedProfile(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := resolved.Config()
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			c, err := core.New(cfg, attackTopo())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := LeakScan(c)
			if err != nil {
				t.Fatal(err)
			}
			byName := resultsByName(rep)
			for _, probe := range tc.reopened {
				if !byName[probe].Leaked {
					t.Errorf("%s: probe %q should have re-opened (%s)", tc.name, probe, byName[probe].Detail)
				}
			}
			// And nothing else beyond the expected set + residuals.
			expected := map[string]bool{}
			for _, p := range tc.reopened {
				expected[p] = true
			}
			for _, r := range rep.Results {
				if r.Leaked && !r.Probe.Residual && !expected[r.Probe.Name] {
					t.Errorf("%s: unexpected extra leak %q (%s)", tc.name, r.Probe.Name, r.Detail)
				}
			}
		})
	}
}

// TestLeakScanOrder: the report runs exactly the catalogue's Scan
// entries, ordered by (channel, name) whatever the catalogue's own
// order, so the rendered table is stable.
func TestLeakScanOrder(t *testing.T) {
	rep, err := LeakScan(core.MustNew(core.Enhanced(), attackTopo()))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range catalogue {
		if e.Scan {
			want = append(want, e.Name)
		}
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("report has %d rows, want the %d Scan entries", len(rep.Results), len(want))
	}
	if !slices.IsSortedFunc(rep.Results, func(a, b audit.Result) int { return audit.Compare(a.Probe, b.Probe) }) {
		t.Errorf("report rows are not in (channel, name) order:\n%s", rep.Table().Render())
	}
	got := make([]string, 0, len(rep.Results))
	for _, r := range rep.Results {
		got = append(got, r.Probe.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report rows %v, want the Scan entries %v", got, want)
		}
	}
}

// TestLeakScanGolden pins cmd/leakscan's rendered reports byte for
// byte on its default topology: baseline, enhanced, and enhanced minus
// each registry measure. The goldens in testdata/leakscan were
// recorded before the scan moved onto the shared probe catalogue.
func TestLeakScanGolden(t *testing.T) {
	type golden struct {
		name    string
		profile core.Profile
		opts    []core.Option
	}
	cases := []golden{
		{"baseline", core.BaselineProfile(), nil},
		{"enhanced", core.EnhancedProfile(), nil},
	}
	for _, m := range core.Measures() {
		cases = append(cases, golden{"enhanced-minus-" + m.Name, core.EnhancedProfile(), []core.Option{core.Without(m.Name)}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.NewWithProfile(tc.profile, append([]core.Option{core.WithTopology(core.DefaultTopology())}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := LeakScan(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "leakscan", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Table().Render(); got != string(want) {
				t.Errorf("report drifted from the golden:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestKillChainGolden pins the rendered event table of the kill-chain
// campaign (seed 1, as cmd/leakscan -attack kill-chain runs it) byte for
// byte: baseline, enhanced, and enhanced minus each registry measure.
// The goldens in testdata/killchain were recorded while every Detail
// was still formatted eagerly; they also guard the step-only entries
// (symlink-plant, gpu-residue, container-escape) that no leak scan
// renders.
func TestKillChainGolden(t *testing.T) {
	spec, err := ModelByName("kill-chain")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		name    string
		profile core.Profile
		opts    []core.Option
	}
	cases := []golden{
		{"baseline", core.BaselineProfile(), nil},
		{"enhanced", core.EnhancedProfile(), nil},
	}
	for _, m := range core.Measures() {
		cases = append(cases, golden{"enhanced-minus-" + m.Name, core.EnhancedProfile(), []core.Option{core.Without(m.Name)}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.NewWithProfile(tc.profile, append([]core.Option{core.WithTopology(core.DefaultTopology())}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := cs.Execute(c, metrics.NewRNG(metrics.StreamSeed(1, StreamIndex)), 100000)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "killchain", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := audit.EventTable(out.Model+" vs "+c.Cfg.Name, out.Events).Render(); got != string(want) {
				t.Errorf("event table drifted from the golden:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestDenialsKeepTheirError checks that a denied attempt's Detail
// keeps the typed refusal the mechanism returned, unrendered: a leak
// scan's closed rows and a kill chain's denied steps on the enhanced
// profile name the mechanism through errors.As.
func TestDenialsKeepTheirError(t *testing.T) {
	enhanced := func() *core.Cluster {
		c, err := core.NewWithProfile(core.EnhancedProfile(), core.WithTopology(core.DefaultTopology()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rep, err := LeakScan(enhanced())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ModelByName("kill-chain")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := cs.Execute(enhanced(), metrics.NewRNG(metrics.StreamSeed(1, StreamIndex)), 100000)
	if err != nil {
		t.Fatal(err)
	}
	details := map[string]audit.Detail{}
	for _, r := range rep.Results {
		if !r.Leaked {
			details[r.Probe.Name] = r.Detail
		}
	}
	for _, e := range out.Events {
		if !e.Leaked {
			details[e.Step] = e.Detail
		}
	}
	typed := map[string]func(error) bool{
		"home-file-read":            isA[vfs.PathError],
		"chmod-world-readable":      isA[vfs.PathError],
		"tmp-content-read":          isA[vfs.PathError],
		"tmp-symlink-planting":      isA[vfs.SymlinkError],
		"acl-grant-to-stranger":     isA[vfs.ACLError],
		"container-home-read":       isA[vfs.PathError],
		"symlink-plant":             isA[vfs.SymlinkError],
		"cross-user-dial":           isA[netsim.FlowError],
		"rdma-tcp-cm-qp":            isA[netsim.FlowError],
		"ssh-roam-to-victim-node":   isA[simos.LoginError],
		"node-roam":                 isA[simos.LoginError],
		"portal-cross-user-forward": isA[portal.ForwardError],
		"portal-pivot":              isA[portal.ForwardError],
		"container-escape":          isA[container.AdmissionError],
	}
	for name, is := range typed {
		d, ok := details[name]
		if !ok {
			t.Errorf("%s: not denied on the enhanced profile", name)
			continue
		}
		if !is(d.Err()) {
			t.Errorf("%s: detail %q keeps %T, not the mechanism's typed denial", name, d, d.Err())
		}
	}
}

// isA reports whether errors.As finds a *T in err.
func isA[T any, P interface {
	*T
	error
}](err error) bool {
	var target P
	return errors.As(err, &target)
}
