package attack

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestOracleAtoms: every closing atom is a registry measure or
// LiveVictimJob, no closing set is empty (it would close its entry
// unconditionally), and no registry measure is redundant cover for the
// others: dropping any one from enhanced opens at least one entry.
func TestOracleAtoms(t *testing.T) {
	known := append(core.MeasureNames(), LiveVictimJob)
	for _, e := range catalogue {
		for _, set := range e.Closes {
			if len(set) == 0 {
				t.Errorf("%s: empty closing set", e.Name)
			}
			for _, atom := range set {
				if !slices.Contains(known, atom) {
					t.Errorf("%s: closing atom %q is neither a registry measure nor %s", e.Name, atom, LiveVictimJob)
				}
			}
		}
	}
	for _, m := range core.MeasureNames() {
		atoms := atomsWithout(m, LiveVictimJob)
		if !slices.ContainsFunc(catalogue, func(e Entry) bool { return !e.Residual() && e.Open(atoms...) }) {
			t.Errorf("dropping %s from enhanced opens no entry", m)
		}
	}
}

// atomsWithout lists every registry measure except drop, then extra.
func atomsWithout(drop string, extra ...string) []string {
	return append(slices.DeleteFunc(core.MeasureNames(), func(n string) bool { return n == drop }), extra...)
}

// TestOracleLattice holds the simulator to the catalogue's closing
// conditions on every subset of the measure registry. Each subset gets
// a cluster deploying exactly those measures, reset before every
// session, and every attempt must leak exactly when the oracle says its
// entry is open and be denied, by an observed mechanism, exactly when
// it says closed: an inconclusive verdict fails every arm. The arms:
//   - fresh: each entry alone on a new session;
//   - fresh-live-job: the same after the victim's long job started;
//   - shared-session: all entries in catalogue order on one session
//     with the victim's job started, so no entry's setup spoils another;
//   - leakscan, reopened and kill-chain, whose setup starts the victim's
//     job, on both test topologies.
func TestOracleLattice(t *testing.T) {
	chain := mustCompile(t, "kill-chain")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	measures := core.Measures()
	failed := map[string]int{} // arm → measure subsets that disagree
	for mask := 0; mask < 1<<len(measures); mask++ {
		p := core.BaselineProfile()
		var atoms []string
		for i, m := range measures {
			if mask&(1<<i) != 0 {
				p.Measures = append(p.Measures, m)
				atoms = append(atoms, m.Name)
			}
		}
		live := append(slices.Clip(atoms), LiveVictimJob)
		for ti, topo := range []core.Topology{attackTopo(), core.DefaultTopology()} {
			c, err := core.NewWithProfile(p, core.WithTopology(topo))
			must(err)
			disagree := map[string]bool{}
			fail := func(arm string, format string, args ...any) {
				if !disagree[arm] {
					if disagree[arm] = true; failed[arm] < 3 {
						t.Errorf("%s %v: "+format, append([]any{arm, atoms}, args...)...)
					}
				}
			}
			check := func(arm, name string, v audit.Verdict, open bool, d audit.Detail) {
				want := audit.Denied
				if open {
					want = audit.Leaked
				}
				if v != want {
					fail(arm, "%s reads %s, oracle open=%v (%s)", name, verdictNames[v], open, d)
				}
			}
			fresh := func(liveJob bool) *session {
				must(c.Reset())
				ss, err := provision(c)
				if err == nil && liveJob {
					err = ss.victimJob()
				}
				must(err)
				return ss
			}
			if ti == 0 {
				ss := fresh(true)
				for i := range catalogue {
					e := &catalogue[i]
					r := e.run(ss, e.Name)
					check("shared-session", e.Name, r.Verdict, e.Open(live...), r.Detail)
				}
				for i := range catalogue {
					e := &catalogue[i]
					r := e.run(fresh(false), e.Name)
					check("fresh", e.Name, r.Verdict, e.Open(atoms...), r.Detail)
					r = e.run(fresh(true), e.Name)
					check("fresh-live-job", e.Name, r.Verdict, e.Open(live...), r.Detail)
				}
			}
			on := fmt.Sprintf(" (%d nodes)", topo.ComputeNodes)
			must(c.Reset())
			rep, err := LeakScan(c) // an inconclusive row also fails its check
			if rep == nil {
				must(err)
			}
			for _, r := range rep.Results {
				e := entry(r.Probe.Name)
				check("leakscan"+on, e.Name, r.Verdict, e.Open(live...), r.Detail)
			}
			must(c.Reset())
			labels, err := Reopened(c)
			if err != nil {
				fail("reopened"+on, "%v", err)
			}
			for _, e := range catalogue {
				open := slices.ContainsFunc(catalogue, func(o Entry) bool { return o.Label == e.Label && o.Open(live...) })
				if e.Label != "" && err == nil && slices.Contains(labels, e.Label) != open {
					fail("reopened"+on, "%s reopened=%v, oracle open=%v", e.Label, !open, open)
				}
			}
			must(c.Reset())
			out, _, err := chain.Execute(c, metrics.NewRNG(11), 4000)
			must(err)
			for _, ev := range out.Events {
				st, err := StepByName(ev.Step)
				must(err)
				check("kill-chain"+on, ev.Step, ev.Verdict, st.Open(live...), ev.Detail)
			}
			for arm := range disagree {
				failed[arm]++
			}
		}
	}
	for arm, n := range failed {
		t.Errorf("%s: %d of %d measure subsets disagree with the oracle", arm, n, 1<<len(measures))
	}
}

// verdictNames prints a verdict in test messages.
var verdictNames = [...]string{"inconclusive", "denied", "leaked"}
