package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// row helpers

func findRows(rows [][]string, match func([]string) bool) [][]string {
	var out [][]string
	for _, r := range rows {
		if match(r) {
			out = append(out, r)
		}
	}
	return out
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not an int: %q", s)
	}
	return n
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a float: %q", s)
	}
	return f
}

// A drain that hits its tick cap with jobs left fails instead of
// reporting the cap as a makespan: one job longer than the cap cannot
// finish.
func TestDrainMixFailsWhenCutOff(t *testing.T) {
	long := workload.MixSpec{Users: 1, JobsPerUser: 1, MinCores: 1, MaxCores: 1, MinDur: 200000, MaxDur: 200000, MemB: 1 << 20}
	c, ticks, err := drainMix(core.Enhanced(), long, 1)
	if err == nil || !strings.Contains(err.Error(), "1 jobs unfinished") {
		t.Fatalf("a drain cut off at its cap returned (%v, %d, %v), want an unfinished-jobs error", c, ticks, err)
	}
	short := long
	short.MinDur, short.MaxDur = 5, 5
	if _, ticks, err := drainMix(core.Enhanced(), short, 1); err != nil || ticks < 5 || ticks >= 100000 {
		t.Fatalf("a drain of one 5-tick job returned (%d, %v)", ticks, err)
	}
}

func TestE1Shape(t *testing.T) {
	rows := E1ProcessVisibility().Rows()
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 hidepid × 3 observers", len(rows))
	}
	for _, r := range rows {
		hide, obs := r[0], r[1]
		listed, readable := atoi(t, r[2]), atoi(t, r[3])
		switch {
		case obs == "root" || obs == "support+seepid":
			if listed < 60 {
				t.Errorf("hidepid=%s %s lists %d, want >= 60", hide, obs, listed)
			}
		case hide == "2":
			if listed != 20 {
				t.Errorf("hidepid=2 user lists %d, want exactly own 20", listed)
			}
		case hide == "1":
			if listed < 60 || readable != 20 {
				t.Errorf("hidepid=1 user: listed=%d readable=%d, want >=60 and 20", listed, readable)
			}
		case hide == "0":
			if listed != readable || listed < 60 {
				t.Errorf("hidepid=0 user: listed=%d readable=%d", listed, readable)
			}
		}
		if readable > listed {
			t.Errorf("readable %d > listed %d", readable, listed)
		}
	}
}

func TestE2Shape(t *testing.T) {
	rows := E2CVEMitigation().Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r[0] {
		case "baseline":
			if r[2] != "yes" {
				t.Errorf("baseline should expose the secret")
			}
		case "enhanced":
			if r[2] != "no" {
				t.Errorf("enhanced should pre-mitigate the CVE")
			}
		}
	}
}

func TestE3Shape(t *testing.T) {
	rows := E3SchedulerPrivacy().Rows()
	for _, r := range rows {
		cfg, obs := r[0], r[1]
		squeue := atoi(t, r[2])
		switch {
		case cfg == "enhanced" && obs == "user0":
			if squeue != 25 {
				t.Errorf("enhanced user0 squeue = %d, want 25 (own only)", squeue)
			}
		case cfg == "baseline" && obs == "user0":
			if squeue != 100 {
				t.Errorf("baseline user0 squeue = %d, want all 100", squeue)
			}
		case obs == "root":
			if squeue != 100 {
				t.Errorf("%s root squeue = %d, want 100", cfg, squeue)
			}
		case obs == "user0 (after drain)":
			want := 25
			if cfg == "baseline" {
				want = 100
			}
			if sacct := atoi(t, r[3]); sacct != want {
				t.Errorf("%s drained sacct = %d, want %d", cfg, sacct, want)
			}
		}
	}
}

func TestE4Shape(t *testing.T) {
	rows := E4SchedulingPolicies().Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string][]string{}
	for _, r := range rows {
		byPolicy[r[0]] = r
	}
	shared, excl, whole := byPolicy["shared"], byPolicy["exclusive"], byPolicy["user-wholenode"]
	if shared == nil || excl == nil || whole == nil {
		t.Fatalf("missing policies: %v", byPolicy)
	}
	// Blast radius: shared policy kills other users' jobs; the
	// paper's policy never does.
	if atoi(t, shared[4]) == 0 {
		t.Errorf("shared policy shows no cross-user cofailures; fault injection broken")
	}
	if atoi(t, whole[4]) != 0 {
		t.Errorf("user-wholenode cofailures = %s, want 0", whole[4])
	}
	if atoi(t, excl[4]) != 0 {
		t.Errorf("exclusive cofailures = %s, want 0", excl[4])
	}
	// Separation invariant.
	if atoi(t, whole[5]) > 1 {
		t.Errorf("user-wholenode max users/node = %s", whole[5])
	}
	if atoi(t, shared[5]) <= 1 {
		t.Errorf("shared policy never mixed users — workload too small?")
	}
	// Utilization/makespan ordering: user-wholenode beats exclusive
	// for many small jobs (the paper's motivation for the policy).
	if atof(t, whole[1]) <= atof(t, excl[1]) {
		t.Errorf("utilization: user-wholenode %s <= exclusive %s", whole[1], excl[1])
	}
	if atoi(t, whole[2]) >= atoi(t, excl[2]) {
		t.Errorf("makespan: user-wholenode %s >= exclusive %s", whole[2], excl[2])
	}
}

func TestE5Shape(t *testing.T) {
	rows := E5SSHGate().Rows()
	want := map[[2]string]string{
		{"baseline", "owner -> job node"}:    "ALLOW",
		{"baseline", "owner -> other node"}:  "ALLOW", // no pam: roam anywhere
		{"baseline", "stranger -> job node"}: "ALLOW",
		{"baseline", "root -> job node"}:     "ALLOW",
		{"enhanced", "owner -> job node"}:    "ALLOW",
		{"enhanced", "owner -> other node"}:  "deny",
		{"enhanced", "stranger -> job node"}: "deny",
		{"enhanced", "root -> job node"}:     "ALLOW",
	}
	seen := 0
	for _, r := range rows {
		k := [2]string{r[0], r[1]}
		if w, ok := want[k]; ok {
			seen++
			if r[2] != w {
				t.Errorf("%v = %s, want %s", k, r[2], w)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("saw %d/%d expected rows", seen, len(want))
	}
}

func TestE6Shape(t *testing.T) {
	rows := E6FilesystemMatrix().Rows()
	want := map[string][2]string{
		"stranger reads home file":         {"SHARED", "blocked"},
		"chmod o+r then stranger read":     {"SHARED", "blocked"},
		"ACL grant to stranger":            {"SHARED", "blocked"},
		"ACL grant to project member":      {"SHARED", "SHARED"}, // intended sharing preserved
		"stranger reads /tmp file content": {"SHARED", "blocked"},
		"stranger lists /tmp file names":   {"SHARED", "SHARED"}, // residual
		"project member reads /proj file":  {"SHARED", "SHARED"}, // intended sharing preserved
	}
	for _, r := range rows {
		w, ok := want[r[0]]
		if !ok {
			t.Errorf("unexpected attempt %q", r[0])
			continue
		}
		if r[1] != w[0] || r[2] != w[1] {
			t.Errorf("%q = (%s, %s), want (%s, %s)", r[0], r[1], r[2], w[0], w[1])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("rows = %d, want %d", len(rows), len(want))
	}
}

func TestE7Shape(t *testing.T) {
	rows := E7UBFMatrix().Rows()
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 4 scenarios × 2 protos", len(rows))
	}
	for _, r := range rows {
		scenario, baseline, enhanced := r[0], r[2], r[3]
		if baseline != "ALLOW" {
			t.Errorf("baseline %q = %s, want ALLOW (no firewall)", scenario, baseline)
		}
		wantEnhanced := "deny"
		if scenario == "same user" || scenario == "project peer, listener under sg team" {
			wantEnhanced = "ALLOW"
		}
		if enhanced != wantEnhanced {
			t.Errorf("enhanced %q = %s, want %s", scenario, enhanced, wantEnhanced)
		}
	}
}

func TestE8Shape(t *testing.T) {
	rows := E8UBFOverhead().Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		hooks, idents, hits := atoi(t, r[1]), atoi(t, r[2]), atoi(t, r[3])
		switch r[0] {
		case "no firewall (baseline)":
			if hooks != 0 || idents != 0 {
				t.Errorf("baseline did work: hooks=%d idents=%d", hooks, idents)
			}
		case "UBF, no verdict cache":
			if hooks != 1000 || idents != 2000 || hits != 0 {
				t.Errorf("no-cache: hooks=%d idents=%d hits=%d, want 1000/2000/0", hooks, idents, hits)
			}
		case "UBF + verdict cache":
			if hooks != 1000 || hits != 999 || idents != 2000 {
				t.Errorf("cache: hooks=%d idents=%d hits=%d, want 1000/2000/999", hooks, idents, hits)
			}
		}
	}
}

func TestE9Shape(t *testing.T) {
	rows := E9GPUResidue().Rows()
	for _, r := range rows {
		switch r[0] {
		case "baseline":
			if r[1] != "yes" || r[2] != "yes" {
				t.Errorf("baseline = %v, want open device + residue", r)
			}
		case "enhanced":
			if r[1] != "no" || r[2] != "no" {
				t.Errorf("enhanced = %v, want closed device + no residue", r)
			}
		}
	}
}

func TestE10Shape(t *testing.T) {
	rows := E10ResidualChannels().Rows()
	if len(rows) != 3 {
		t.Fatalf("residual channels = %d, want 3", len(rows))
	}
	channels := map[string]bool{}
	for _, r := range rows {
		channels[r[0]] = true
		if r[1] != "yes" {
			t.Errorf("residual channel %s closed — does not match the paper", r[0])
		}
	}
	for _, want := range []string{"tmp-names", "abstract-socket", "rdma-cm"} {
		if !channels[want] {
			t.Errorf("missing residual channel %s", want)
		}
	}
}

func TestE11Shape(t *testing.T) {
	rows := E11Portal().Rows()
	want := map[[2]string]string{
		{"baseline", "owner -> own app (node A)"}:      "ALLOW",
		{"baseline", "other user -> owner's app"}:      "ALLOW", // auth only, path unguarded
		{"baseline", "unauthenticated -> owner's app"}: "deny",  // portal auth still applies
		{"enhanced", "owner -> own app (node A)"}:      "ALLOW",
		{"enhanced", "owner -> own app (node B)"}:      "ALLOW", // any node, any partition
		{"enhanced", "other user -> owner's app"}:      "deny",
		{"enhanced", "unauthenticated -> owner's app"}: "deny",
	}
	for _, r := range rows {
		if w, ok := want[[2]string{r[0], r[1]}]; ok && r[2] != w {
			t.Errorf("%s %q = %s, want %s", r[0], r[1], r[2], w)
		}
	}
}

func TestE12Shape(t *testing.T) {
	rows := E12Container().Rows()
	for _, r := range rows {
		cfg, probe, res := r[0], r[1], r[2]
		switch probe {
		case "request privileged container":
			if res != "deny" {
				t.Errorf("%s: privileged container allowed", cfg)
			}
		case "read another user's home file", "dial another user's service":
			want := "ALLOW"
			if cfg == "enhanced" {
				want = "deny"
			}
			if res != want {
				t.Errorf("%s %q = %s, want %s", cfg, probe, res, want)
			}
		}
	}
}

func TestAllRuns(t *testing.T) {
	tables := All()
	// E1..E17 plus the two fleet-replicated campaign tables.
	if len(tables) != 19 {
		t.Fatalf("tables = %d, want 19", len(tables))
	}
	for _, tb := range tables {
		out := tb.Render()
		if !strings.HasPrefix(out, "== E") {
			t.Errorf("table title malformed: %q", strings.SplitN(out, "\n", 2)[0])
		}
		if len(tb.Rows()) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
	}
}
