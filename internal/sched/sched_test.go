package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/simos"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func computeNodes(n, cores int, memB int64) []*simos.Node {
	var out []*simos.Node
	for i := 0; i < n; i++ {
		out = append(out, simos.NewNode(fmt.Sprintf("c%02d", i), simos.Compute, cores, memB, nil))
	}
	return out
}

func spec(cores int, dur int64) JobSpec {
	return JobSpec{Name: "job", Command: "a.out", Cores: cores, MemB: 1, Duration: dur}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{}, computeNodes(2, 4, 100), 0)
	if _, err := s.Submit(cred(1000), spec(0, 1)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero cores err = %v", err)
	}
	if _, err := s.Submit(cred(1000), spec(4, 0)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero duration err = %v", err)
	}
	if _, err := s.Submit(cred(1000), spec(9, 1)); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("oversized err = %v", err)
	}
	if _, err := s.Submit(cred(1000), spec(8, 1)); err != nil {
		t.Errorf("max-size submit: %v", err)
	}
}

func TestJobLifecycle(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 100), 0)
	j, err := s.Submit(cred(1000), spec(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Job(j); got.State != Pending {
		t.Fatalf("state after submit = %v", got.State)
	}
	s.Step() // starts
	got, _ := s.Job(j)
	if got.State != Running || got.Start != 1 {
		t.Fatalf("after step: state=%v start=%d", got.State, got.Start)
	}
	if len(got.Nodes) != 1 || got.Nodes[0] != "c00" {
		t.Errorf("nodes = %v", got.Nodes)
	}
	s.Step()
	s.Step()
	s.Step() // duration 3 elapsed
	got, _ = s.Job(j)
	if got.State != Completed {
		t.Errorf("state after 4 steps = %v", got.State)
	}
	if got.End-got.Start != 3 {
		t.Errorf("runtime = %d, want 3", got.End-got.Start)
	}
}

func TestJobSpawnsProcessesWithCommand(t *testing.T) {
	nodes := computeNodes(1, 4, 100)
	s := New(Config{}, nodes, 0)
	j, _ := s.Submit(cred(1000), JobSpec{Name: "n", Command: "simulate --token=SECRET", Cores: 2, MemB: 1, Duration: 2})
	s.Step()
	procs := userProcs(nodes[0].Procs, 1000)
	if len(procs) != 1 {
		t.Fatalf("job spawned %d procs, want 1", len(procs))
	}
	if procs[0].JobID != j {
		t.Errorf("proc job = %d, want %d", procs[0].JobID, j)
	}
	if procs[0].Cmdline[1] != "simulate --token=SECRET" {
		t.Errorf("cmdline = %v", procs[0].Cmdline)
	}
	// Job end reaps the processes.
	s.Step()
	s.Step()
	if n := len(userProcs(nodes[0].Procs, 1000)); n != 0 {
		t.Errorf("%d procs survive job end", n)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	s := New(Config{}, computeNodes(1, 2, 100), 0)
	j1, _ := s.Submit(cred(1000), spec(2, 10))
	j2, _ := s.Submit(cred(1000), spec(2, 10)) // queued behind j1
	s.Step()
	// Stranger cannot cancel.
	if err := s.Cancel(cred(2000), j1); !errors.Is(err, ErrNotOwner) {
		t.Errorf("stranger cancel err = %v", err)
	}
	if err := s.Cancel(cred(1000), j2); err != nil {
		t.Fatalf("cancel pending: %v", err)
	}
	if err := s.Cancel(cred(1000), j1); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	g1, _ := s.Job(j1)
	g2, _ := s.Job(j2)
	if g1.State != Cancelled || g2.State != Cancelled {
		t.Errorf("states = %v %v", g1.State, g2.State)
	}
	// Bad IDs: out of range either way, and an ID issued before a Reset
	// that the rewound scheduler has not reissued yet.
	s.Reset()
	if _, err := s.Submit(cred(1000), spec(1, 10)); err != nil { // reissues ID 1 only
		t.Fatal(err)
	}
	for _, id := range []int{0, -1, 999, j2} {
		for name, call := range map[string]func() error{
			"Job":    func() error { _, err := s.Job(id); return err },
			"Cancel": func() error { return s.Cancel(ids.RootCred(), id) },
		} {
			if err := call(); !errors.Is(err, ErrNoSuchJob) {
				t.Errorf("%s(%d) err = %v, want ErrNoSuchJob", name, id, err)
			}
		}
	}
}

func TestMultiNodeSpanning(t *testing.T) {
	s := New(Config{}, computeNodes(3, 4, 100), 0)
	j, _ := s.Submit(cred(1000), spec(10, 2))
	s.Step()
	got, _ := s.Job(j)
	if got.State != Running {
		t.Fatalf("10-core job did not start: %v", got.State)
	}
	total := 0
	for _, c := range got.Cores {
		total += c
	}
	if total != 10 || len(got.Nodes) != 3 || len(got.Cores) != 3 {
		t.Errorf("placement = %v %v (total %d)", got.Nodes, got.Cores, total)
	}
}

func TestFIFOWithBackfill(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 100), 0)
	big, _ := s.Submit(cred(1000), spec(4, 5))
	blocked, _ := s.Submit(cred(1000), spec(4, 1)) // cannot start until big ends
	small, _ := s.Submit(cred(2000), spec(1, 1))   // would fit alongside? no: node full
	s.Step()
	gb, _ := s.Job(big)
	if gb.State != Running {
		t.Fatalf("big not running")
	}
	gbl, _ := s.Job(blocked)
	gs, _ := s.Job(small)
	if gbl.State != Pending || gs.State != Pending {
		t.Errorf("blocked=%v small=%v, both should wait (node full)", gbl.State, gs.State)
	}
	if len(s.pending) != 2 {
		t.Errorf("pending = %d", len(s.pending))
	}
}

func TestBackfillFillsHoles(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 100), 0)
	a, _ := s.Submit(cred(1000), spec(3, 5))
	b, _ := s.Submit(cred(1000), spec(2, 5)) // doesn't fit (3+2>4)
	c, _ := s.Submit(cred(1000), spec(1, 5)) // backfills the hole
	s.Step()
	ga, _ := s.Job(a)
	gb, _ := s.Job(b)
	gc, _ := s.Job(c)
	if ga.State != Running || gc.State != Running || gb.State != Pending {
		t.Errorf("a=%v b=%v c=%v, want R PD R", ga.State, gb.State, gc.State)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := New(Config{}, computeNodes(1, 4, 100), 0)
	if _, err := s.Submit(cred(1000), spec(4, 2)); err != nil {
		t.Fatal(err)
	}
	s.Step() // tick 1: job starts this tick; usage counted from next tick
	s.Step() // tick 2: 4/4 busy
	s.Step() // tick 3: job completes at start of tick
	u := s.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
}

func TestOOMCrashSharedBlastRadius(t *testing.T) {
	// Two users share a node; one exceeds memory; both fail.
	s := New(Config{Policy: PolicyShared}, computeNodes(1, 4, 100), 0)
	hog, _ := s.Submit(cred(1000), JobSpec{Name: "hog", Command: "x", Cores: 2, MemB: 10, ActualMemB: 200, Duration: 10})
	victim, _ := s.Submit(cred(2000), JobSpec{Name: "v", Command: "y", Cores: 2, MemB: 10, Duration: 10})
	s.Step() // both start
	s.Step() // OOM detected
	gh, _ := s.Job(hog)
	gv, _ := s.Job(victim)
	if gh.State != Failed || gv.State != Failed {
		t.Fatalf("hog=%v victim=%v, want both Failed", gh.State, gv.State)
	}
	crashes, cofail := s.Crashes()
	if crashes != 1 || cofail != 1 {
		t.Errorf("crashes=%d cofail=%d, want 1,1", crashes, cofail)
	}
}

func TestOOMCrashUserWholeNodeNoCofailure(t *testing.T) {
	// Same scenario under the paper's policy: the victim lands on a
	// different node (or waits), so no cross-user cofailure.
	s := New(Config{Policy: PolicyUserWholeNode}, computeNodes(2, 4, 100), 0)
	if _, err := s.Submit(cred(1000), JobSpec{Name: "hog", Command: "x", Cores: 2, MemB: 10, ActualMemB: 200, Duration: 10}); err != nil {
		t.Fatal(err)
	}
	victim, _ := s.Submit(cred(2000), JobSpec{Name: "v", Command: "y", Cores: 2, MemB: 10, Duration: 3})
	s.RunAll(20)
	gv, _ := s.Job(victim)
	if gv.State != Completed {
		t.Fatalf("victim state = %v, want Completed", gv.State)
	}
	_, cofail := s.Crashes()
	if cofail != 0 {
		t.Errorf("cofailures = %d, want 0 under user-wholenode", cofail)
	}
}

func TestPamSlurmGatesSSH(t *testing.T) {
	nodes := computeNodes(2, 4, 100)
	s := New(Config{PamSlurm: true}, nodes, 0)
	alice, bob := cred(1000), cred(2000)
	j, _ := s.Submit(alice, spec(2, 5))
	s.Step()
	got, _ := s.Job(j)
	jobNode := nodes[0]
	if got.Nodes[0] != jobNode.Name {
		t.Fatalf("unexpected placement %v", got.Nodes)
	}
	// Owner can ssh to the node with her job.
	if _, err := jobNode.Login(alice); err != nil {
		t.Errorf("owner ssh: %v", err)
	}
	// Bob cannot.
	if _, err := jobNode.Login(bob); !errors.Is(err, simos.ErrAccessDenied) {
		t.Errorf("stranger ssh err = %v, want ErrAccessDenied", err)
	}
	// Alice cannot ssh to the *other* node either.
	if _, err := nodes[1].Login(alice); !errors.Is(err, simos.ErrAccessDenied) {
		t.Errorf("jobless-node ssh err = %v, want ErrAccessDenied", err)
	}
	// Root always may.
	if _, err := jobNode.Login(ids.RootCred()); err != nil {
		t.Errorf("root ssh: %v", err)
	}
	// After the job ends, access is revoked.
	s.RunAll(20)
	if _, err := jobNode.Login(alice); !errors.Is(err, simos.ErrAccessDenied) {
		t.Errorf("post-job ssh err = %v, want ErrAccessDenied", err)
	}
}

func TestRunAllDrains(t *testing.T) {
	s := New(Config{}, computeNodes(2, 4, 100), 0)
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(cred(ids.UID(1000+i%3)), spec(1+i%4, int64(1+i%3))); err != nil {
			t.Fatal(err)
		}
	}
	ticks := s.RunAll(1000)
	if ticks >= 1000 {
		t.Fatalf("RunAll did not drain")
	}
	if len(s.pending) != 0 {
		t.Errorf("pending = %d after RunAll", len(s.pending))
	}
	recs := s.Sacct(ids.RootCred())
	if len(recs) != 20 {
		t.Errorf("accounting rows = %d, want 20", len(recs))
	}
	for _, r := range recs {
		if r.State != Completed {
			t.Errorf("job %d state %v", r.JobID, r.State)
		}
	}
}

func TestDownNodeSkipped(t *testing.T) {
	nodes := computeNodes(2, 4, 100)
	s := New(Config{}, nodes, 0)
	nodes[0].Crash()
	j, _ := s.Submit(cred(1000), spec(4, 1))
	s.Step()
	got, _ := s.Job(j)
	if got.State != Running || got.Nodes[0] != "c01" {
		t.Errorf("job on down node: %v %v", got.State, got.Nodes)
	}
}

func TestGPUAllocationLimits(t *testing.T) {
	s := New(Config{}, computeNodes(1, 8, 100), 2)
	a, _ := s.Submit(cred(1000), JobSpec{Name: "g1", Command: "x", Cores: 1, MemB: 1, GPUs: 2, Duration: 5})
	b, _ := s.Submit(cred(1000), JobSpec{Name: "g2", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 5})
	s.Step()
	ga, _ := s.Job(a)
	gb, _ := s.Job(b)
	if ga.State != Running {
		t.Fatalf("gpu job a not running")
	}
	if gb.State != Pending {
		t.Errorf("gpu job b should wait (0 free GPUs), state=%v", gb.State)
	}
}

func TestJobStringAndStateString(t *testing.T) {
	j := &Job{ID: 1, User: 1000, Spec: JobSpec{Name: "n", Cores: 2}, State: Running}
	if j.String() == "" {
		t.Error("empty String")
	}
	for st, want := range map[JobState]string{Pending: "PD", Running: "R", Completed: "CD", Failed: "F", Cancelled: "CA", JobState(9): "?"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	for p, want := range map[SharingPolicy]string{PolicyShared: "shared", PolicyExclusive: "exclusive", PolicyUserWholeNode: "user-wholenode", SharingPolicy(9): "?"} {
		if p.String() != want {
			t.Errorf("policy %d = %q", p, p.String())
		}
		if want == "?" {
			continue
		}
		// ParsePolicy round-trips every valid String form.
		back, err := ParsePolicy(want)
		if err != nil || back != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus policy")
	}
}

func TestGPURequestMustFitOneNode(t *testing.T) {
	s := New(Config{}, computeNodes(2, 8, 100), 2)
	if _, err := s.Submit(cred(1000), JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 3, Duration: 1}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("3-gpu request on 2-gpu nodes err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Submit(cred(1000), JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 2, Duration: 1}); err != nil {
		t.Errorf("2-gpu request: %v", err)
	}
	// CPU-only cluster rejects any GPU request.
	s2 := New(Config{}, computeNodes(2, 8, 100), 0)
	if _, err := s2.Submit(cred(1000), JobSpec{Name: "g", Command: "x", Cores: 1, MemB: 1, GPUs: 1, Duration: 1}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("gpu request on cpu cluster err = %v", err)
	}
}

// TestFitMemoryBinds makes memory the binding constraint: one compute
// node with 16 cores and 1 GiB, and two 1-core jobs of 600 MiB each.
// Cores would admit both at once; memory admits one, so the second
// stays Pending until the first completes, and the node never runs out
// of memory.
func TestFitMemoryBinds(t *testing.T) {
	s := New(Config{}, computeNodes(1, 16, 1<<30), 0)
	job := JobSpec{Name: "big", Command: "a.out", Cores: 1, MemB: 600 << 20, Duration: 3}
	first, err := s.Submit(cred(1000), job)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(cred(1001), job)
	if err != nil {
		t.Fatal(err)
	}
	state := func(id int) JobState {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		return j.State
	}
	for tick := 1; state(first) != Completed; tick++ {
		if tick > 8 {
			t.Fatalf("first job never completed: %v", state(first))
		}
		s.Step()
		if st := state(first); st == Running && state(second) != Pending {
			t.Fatalf("tick %d: second job is %v while the first runs; 2 x 600 MiB exceed the node's 1 GiB", tick, state(second))
		}
	}
	s.Step()
	if st := state(second); st != Running {
		t.Errorf("second job is %v after the first completed, want Running", st)
	}
	s.RunAll(16)
	if st := state(second); st != Completed {
		t.Errorf("second job is %v after the drain, want Completed", st)
	}
	if crashes, cofail := s.Crashes(); crashes != 0 || cofail != 0 {
		t.Errorf("%d crashes, %d co-failures, want none", crashes, cofail)
	}
}

// userProcs lists uid's live processes in tb, in PID order.
func userProcs(tb *simos.Table, uid ids.UID) []*simos.Process {
	var out []*simos.Process
	tb.Visit(func(p *simos.Process) bool {
		if p.Cred.UID == uid {
			out = append(out, p)
		}
		return true
	})
	return out
}
