package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/simos"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func nodes(n, cores int) []*simos.Node {
	var out []*simos.Node
	for i := 0; i < n; i++ {
		out = append(out, simos.NewNode(fmt.Sprintf("c%02d", i), simos.Compute, cores, 1<<20, nil))
	}
	return out
}

// The batch builders below are the reference construction
// TestBuildIntoMatchesLegacyConstruction checks MixSpec against: one
// RNG child per user drives Sweep or MonteCarlo, Mix interleaves the
// batches and WithOOM marks the stream.

// SweepConfig describes a parameter-sweep batch: many small,
// short, independent jobs from one user.
type SweepConfig struct {
	User     ids.Credential
	Jobs     int
	MinCores int
	MaxCores int
	MinDur   int64
	MaxDur   int64
	MemB     int64
}

// Sweep generates the batch deterministically from rng.
func Sweep(rng *metrics.RNG, c SweepConfig) []Submission {
	out := make([]Submission, 0, c.Jobs)
	for i := 0; i < c.Jobs; i++ {
		cores := c.MinCores
		if c.MaxCores > c.MinCores {
			cores += rng.Intn(c.MaxCores - c.MinCores + 1)
		}
		dur := c.MinDur
		if c.MaxDur > c.MinDur {
			dur += int64(rng.Intn(int(c.MaxDur - c.MinDur + 1)))
		}
		out = append(out, Submission{
			Cred: c.User,
			Spec: sched.JobSpec{
				Name:     fmt.Sprintf("sweep-%d", i),
				Command:  fmt.Sprintf("simulate --param=%d", i),
				Cores:    cores,
				MemB:     c.MemB,
				Duration: dur,
			},
		})
	}
	return out
}

// MonteCarlo is a sweep whose jobs carry a seed parameter — identical
// scheduling shape, different command lines (more cmdline surface for
// the hidepid experiments).
func MonteCarlo(rng *metrics.RNG, c SweepConfig) []Submission {
	subs := Sweep(rng, c)
	for i := range subs {
		subs[i].Spec.Name = fmt.Sprintf("mc-%d", i)
		subs[i].Spec.Command = fmt.Sprintf("montecarlo --seed=%d --trials=1000000", rng.Uint64())
	}
	return subs
}

// Mix interleaves batches from several users into one submit-order
// stream, round-robin, which is the contended-scheduler scenario of
// experiment E4.
func Mix(batches ...[]Submission) []Submission {
	var out []Submission
	for i := 0; ; i++ {
		advanced := false
		for _, b := range batches {
			if i < len(b) {
				out = append(out, b[i])
				advanced = true
			}
		}
		if !advanced {
			return out
		}
	}
}

// WithOOM marks every k-th job in the stream as exceeding its memory
// request by factor (ActualMemB = factor × node-memory stand-in),
// injecting the failure mode whole-node scheduling contains.
func WithOOM(subs []Submission, every int, actualMemB int64) []Submission {
	out := append([]Submission(nil), subs...)
	for i := range out {
		if every > 0 && i%every == every-1 {
			out[i].Spec.ActualMemB = actualMemB
		}
	}
	return out
}

func TestSweepDeterministic(t *testing.T) {
	cfg := SweepConfig{User: cred(1000), Jobs: 50, MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 5, MemB: 10}
	a := Sweep(metrics.NewRNG(1), cfg)
	b := Sweep(metrics.NewRNG(1), cfg)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec.Cores != b[i].Spec.Cores || a[i].Spec.Duration != b[i].Spec.Duration {
			t.Fatalf("sweep not deterministic at %d", i)
		}
		if a[i].Spec.Cores < 1 || a[i].Spec.Cores > 4 {
			t.Errorf("cores out of range: %d", a[i].Spec.Cores)
		}
		if a[i].Spec.Duration < 1 || a[i].Spec.Duration > 5 {
			t.Errorf("duration out of range: %d", a[i].Spec.Duration)
		}
	}
}

func TestMonteCarloCommandsDiffer(t *testing.T) {
	cfg := SweepConfig{User: cred(1000), Jobs: 5, MinCores: 1, MaxCores: 1, MinDur: 1, MaxDur: 1, MemB: 1}
	subs := MonteCarlo(metrics.NewRNG(2), cfg)
	seen := map[string]bool{}
	for _, s := range subs {
		if seen[s.Spec.Command] {
			t.Errorf("duplicate command %q", s.Spec.Command)
		}
		seen[s.Spec.Command] = true
	}
}

func TestMixSpecBuild(t *testing.T) {
	spec := MixSpec{
		Users: 3, JobsPerUser: 10, Kind: "montecarlo",
		MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 3, MemB: 5,
		OOMEvery: 10, OOMMemB: 999,
	}
	users := []ids.Credential{cred(1000), cred(2000), cred(3000)}
	a, err := spec.Build(metrics.NewRNG(9), users)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build(metrics.NewRNG(9), users)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 30 {
		t.Fatalf("stream len = %d, want 30", len(a))
	}
	oom := 0
	for i := range a {
		if a[i].Cred.UID != b[i].Cred.UID || a[i].Spec.Cores != b[i].Spec.Cores ||
			a[i].Spec.Duration != b[i].Spec.Duration || a[i].Spec.Command != b[i].Spec.Command {
			t.Fatalf("Build not deterministic at %d", i)
		}
		// Round-robin interleave: position i belongs to user i%3.
		if want := users[i%3].UID; a[i].Cred.UID != want {
			t.Errorf("stream[%d].UID = %d, want %d", i, a[i].Cred.UID, want)
		}
		if a[i].Spec.ActualMemB == 999 {
			oom++
		}
	}
	if oom != 3 {
		t.Errorf("OOM-marked jobs = %d, want 3", oom)
	}
}

func TestMixSpecValidate(t *testing.T) {
	good := MixSpec{Users: 2, JobsPerUser: 5, MinCores: 1, MaxCores: 2, MinDur: 1, MaxDur: 2, MemB: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*MixSpec){
		"no users":         func(m *MixSpec) { m.Users = 0 },
		"no jobs":          func(m *MixSpec) { m.JobsPerUser = 0 },
		"bad kind":         func(m *MixSpec) { m.Kind = "random" },
		"inverted cores":   func(m *MixSpec) { m.MinCores, m.MaxCores = 3, 1 },
		"zero duration":    func(m *MixSpec) { m.MinDur = 0 },
		"zero memory":      func(m *MixSpec) { m.MemB = 0 },
		"oom without size": func(m *MixSpec) { m.OOMEvery = 5; m.OOMMemB = 0 },
	} {
		m := good
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Credential count must match the spec.
	if _, err := good.Build(metrics.NewRNG(1), []ids.Credential{cred(1)}); err == nil {
		t.Errorf("credential-count mismatch accepted")
	}
}

func TestMixRoundRobin(t *testing.T) {
	a := Sweep(metrics.NewRNG(1), SweepConfig{User: cred(1000), Jobs: 3, MinCores: 1, MaxCores: 1, MinDur: 1, MaxDur: 1, MemB: 1})
	b := Sweep(metrics.NewRNG(2), SweepConfig{User: cred(2000), Jobs: 2, MinCores: 1, MaxCores: 1, MinDur: 1, MaxDur: 1, MemB: 1})
	m := Mix(a, b)
	if len(m) != 5 {
		t.Fatalf("mix len = %d", len(m))
	}
	wantUsers := []ids.UID{1000, 2000, 1000, 2000, 1000}
	for i, s := range m {
		if s.Cred.UID != wantUsers[i] {
			t.Errorf("mix[%d].UID = %d, want %d", i, s.Cred.UID, wantUsers[i])
		}
	}
}

func TestWithOOM(t *testing.T) {
	subs := Sweep(metrics.NewRNG(1), SweepConfig{User: cred(1000), Jobs: 6, MinCores: 1, MaxCores: 1, MinDur: 1, MaxDur: 1, MemB: 1})
	marked := WithOOM(subs, 3, 999)
	// Original untouched.
	for _, s := range subs {
		if s.Spec.ActualMemB != 0 {
			t.Fatalf("WithOOM mutated input")
		}
	}
	count := 0
	for _, s := range marked {
		if s.Spec.ActualMemB == 999 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("marked %d jobs, want 2", count)
	}
}

func TestSubmitAllAndDrain(t *testing.T) {
	s := sched.New(sched.Config{Policy: sched.PolicyUserWholeNode}, nodes(4, 8), 0)
	mix := Mix(
		Sweep(metrics.NewRNG(1), SweepConfig{User: cred(1000), Jobs: 20, MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 3, MemB: 1}),
		Sweep(metrics.NewRNG(2), SweepConfig{User: cred(2000), Jobs: 20, MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 3, MemB: 1}),
	)
	jids, err := SubmitAll(s, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(jids) != 40 {
		t.Fatalf("submitted %d", len(jids))
	}
	s.RunAll(5000)
	for _, id := range jids {
		j, err := s.Job(id)
		if err != nil || j.State != sched.Completed {
			t.Errorf("job %d: %v %v", id, j.State, err)
		}
	}
	if n := s.PeakUsersPerNode(); n != 1 {
		t.Errorf("peak users per node = %d under user-wholenode, want 1", n)
	}
}

// BuildInto must be draw-for-draw identical to the legacy batch-based
// construction (one child RNG per user → Sweep/MonteCarlo → Mix → WithOOM),
// for every kind and with/without OOM injection — the property the
// fleet executor's scratch reuse stands on.
func TestBuildIntoMatchesLegacyConstruction(t *testing.T) {
	users := []ids.Credential{cred(1000), cred(2000), cred(3000)}
	for _, spec := range []MixSpec{
		{Users: 3, JobsPerUser: 5, MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 6, MemB: 1 << 20},
		{Users: 3, JobsPerUser: 5, Kind: "montecarlo", MinCores: 2, MaxCores: 2, MinDur: 3, MaxDur: 3, MemB: 1},
		{Users: 3, JobsPerUser: 7, MinCores: 1, MaxCores: 8, MinDur: 1, MaxDur: 4, MemB: 1 << 20, OOMEvery: 4, OOMMemB: 2 << 30},
	} {
		// The legacy pipeline, inlined (Build now delegates to
		// BuildInto, so the reference must be constructed by hand).
		rng := metrics.NewRNG(77)
		gen := Sweep
		if spec.Kind == "montecarlo" {
			gen = MonteCarlo
		}
		var batches [][]Submission
		for _, u := range users {
			batches = append(batches, gen(metrics.NewRNG(rng.Uint64()), SweepConfig{
				User: u, Jobs: spec.JobsPerUser,
				MinCores: spec.MinCores, MaxCores: spec.MaxCores,
				MinDur: spec.MinDur, MaxDur: spec.MaxDur, MemB: spec.MemB,
			}))
		}
		want := Mix(batches...)
		if spec.OOMEvery > 0 {
			want = WithOOM(want, spec.OOMEvery, spec.OOMMemB)
		}

		var sc BuildScratch
		for round := 0; round < 2; round++ { // round 2 runs on a warm scratch
			got, err := spec.BuildInto(metrics.NewRNG(77), users, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("kind=%q oom=%d round %d: BuildInto diverged from legacy construction\n got: %v\nwant: %v",
					spec.Kind, spec.OOMEvery, round, got, want)
			}
		}
	}
}

// A warm scratch makes the sweep kind allocation-free.
func TestBuildIntoWarmScratchAllocFree(t *testing.T) {
	spec := MixSpec{Users: 2, JobsPerUser: 10, MinCores: 1, MaxCores: 4, MinDur: 1, MaxDur: 3, MemB: 1, OOMEvery: 5, OOMMemB: 2}
	users := []ids.Credential{cred(1000), cred(2000)}
	var sc BuildScratch
	rng := metrics.NewRNG(1)
	if _, err := spec.BuildInto(rng, users, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := spec.BuildInto(rng, users, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm-scratch BuildInto allocates %.1f objects per call, want 0", allocs)
	}
}
