package attack

import (
	"errors"
	"maps"
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
	// Dropping one measure through the registry (Without) reopens what
	// the oracle says; TestOracleLattice covers every subset. A field
	// flip finer than a measure must still pass Validate and reopen
	// exactly the channels that field guards.
	cases := []struct {
		name     string
		ablate   string             // a registry measure dropped via Without
		mutate   func(*core.Config) // a finer-grained coherent field flip
		reopened []string           // what the field flip reopens
	}{
		{name: "no-hidepid", ablate: "hidepid"},
		{name: "no-privatedata", ablate: "privatedata"},
		{name: "no-pam", mutate: func(cfg *core.Config) { cfg.PamSlurm = false },
			reopened: []string{"ssh-roam-to-victim-node"}},
		// Dropping the smask patch alone (ACLs + hardened homes stay)
		// reopens only the world-bit paths; the whole §IV-C measure
		// also guards the home, stranger-ACL and in-container reads.
		{name: "no-smask-patch", mutate: func(cfg *core.Config) {
			cfg.SmaskEnabled = false
			cfg.Smask = 0
		}, reopened: []string{"chmod-world-readable", "tmp-content-read"}},
		{name: "no-smask-measure", ablate: "smask"},
		{name: "no-ubf", ablate: "ubf"},
		{name: "no-portal", ablate: "portal"},
		// The GPU flip also drops to the shared policy: the scan's
		// setup starts the victim's long job, and under user-wholenode
		// that live job keeps the attacker's GPU job off the victim's
		// node, masking the missing epilog clear. On an idle cluster
		// whole-node scheduling masks nothing (gpu-memory-residue
		// closes under gpu, or wholenode with LiveVictimJob).
		{name: "no-gpu-clear", mutate: func(cfg *core.Config) {
			cfg.GPUClear = false
			cfg.GPUAssignPerms = false
			cfg.Policy = sched.PolicyShared
		}, reopened: []string{"gpu-memory-residue"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []core.Option
			if tc.ablate != "" {
				opts = append(opts, core.Without(tc.ablate))
			}
			resolved, _, err := core.ResolveProfile(core.EnhancedProfile(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := resolved.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Name = tc.name
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
			for _, r := range rep.Results {
				e := entry(r.Probe.Name)
				want := e.Residual() || slices.Contains(tc.reopened, e.Name)
				if tc.ablate != "" { // the scan's setup starts the victim's job
					want = e.Open(atomsWithout(tc.ablate, LiveVictimJob)...)
				}
				if (r.Verdict == audit.Leaked) != want || r.Verdict == audit.Inconclusive {
					t.Errorf("%s: reads %s, want leaked=%v (%s)", e.Name, verdictNames[r.Verdict], want, r.Detail)
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

// checkGoldens renders a cluster on cmd/leakscan's default topology for
// baseline, enhanced, and enhanced minus each registry measure, and
// compares each rendering with testdata/<dir>/<case>.golden byte for
// byte.
func checkGoldens(t *testing.T, dir string, render func(*core.Cluster) (string, error)) {
	cases := map[string][]core.Option{"baseline": nil, "enhanced": nil}
	for _, m := range core.MeasureNames() {
		cases["enhanced-minus-"+m] = []core.Option{core.Without(m)}
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		t.Run(name, func(t *testing.T) {
			p := core.EnhancedProfile()
			if name == "baseline" {
				p = core.BaselineProfile()
			}
			c, err := core.NewWithProfile(p, append(cases[name], core.WithTopology(core.DefaultTopology()))...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := render(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", dir, name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("rendering drifted from the golden:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestLeakScanGolden pins cmd/leakscan's rendered reports. The
// tmp-symlink-planting and tmp-filename-listing details name the
// harvest link and the victim's own /tmp file, and gpu-memory-residue's
// names which of the three GPU causes kept the residue out; every other
// byte was recorded before the scan moved onto the shared probe
// catalogue.
func TestLeakScanGolden(t *testing.T) {
	checkGoldens(t, "leakscan", func(c *core.Cluster) (string, error) {
		rep, err := LeakScan(c)
		if err != nil {
			return "", err
		}
		return rep.Table().Render(), nil
	})
}

// TestKillChainGolden pins the rendered event table of the kill-chain
// campaign (seed 1, as cmd/leakscan -attack kill-chain runs it). The
// goldens in testdata/killchain were recorded while every Detail was
// still formatted eagerly, all but gpu-residue's, which names its GPU
// cause; they also guard the step-only entries (symlink-plant,
// gpu-residue, container-escape) that no leak scan renders.
func TestKillChainGolden(t *testing.T) {
	cs := mustCompile(t, "kill-chain")
	checkGoldens(t, "killchain", func(c *core.Cluster) (string, error) {
		out, _, err := cs.Execute(c, metrics.NewRNG(metrics.StreamSeed(1, StreamIndex)), 100000)
		if err != nil {
			return "", err
		}
		return audit.EventTable(out.Model+" vs "+c.Cfg.Name, out.Events).Render(), nil
	})
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
		if r.Verdict == audit.Denied {
			details[r.Probe.Name] = r.Detail
		}
	}
	for _, e := range out.Events {
		if e.Verdict == audit.Denied {
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
