package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simos"
)

// e4Campaign builds a scheduler loaded with the E4 experiment shape:
// 8×16-core nodes, 6 users round-robin submitting 50 short jobs each,
// every 60th job exceeding its memory request (OOM injection).
func e4Campaign(t *testing.T, pol SharingPolicy, seed uint64) *Scheduler {
	t.Helper()
	var nodes []*simos.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, simos.NewNode(fmt.Sprintf("c%02d", i), simos.Compute, 16, 1<<30, nil))
	}
	s := New(Config{Policy: pol}, nodes, 2)
	rngs := make([]*metrics.RNG, 6)
	root := metrics.NewRNG(seed)
	for u := range rngs {
		rngs[u] = metrics.NewRNG(root.Uint64())
	}
	n := 0
	for i := 0; i < 50; i++ {
		for u := 0; u < 6; u++ {
			spec := JobSpec{
				Name:     fmt.Sprintf("u%d-j%d", u, i),
				Command:  "simulate",
				Cores:    1 + rngs[u].Intn(8),
				MemB:     1 << 20,
				Duration: 1 + int64(rngs[u].Intn(4)),
			}
			n++
			if n%60 == 0 {
				spec.ActualMemB = 2 << 30
			}
			if _, err := s.Submit(cred(ids.UID(1000+u)), spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// fingerprint renders every accounting record plus the crash counters
// into one byte string, so two drains can be compared exactly.
func fingerprint(s *Scheduler) string {
	var b strings.Builder
	for _, r := range s.Sacct(ids.RootCred()) {
		fmt.Fprintf(&b, "%d|%d|%s|%v|%d|%d|%d|%d|%s\n",
			r.JobID, r.User, r.Name, r.State, r.Submit, r.Start, r.End, r.CoreTicks,
			strings.Join(r.NodeList, ","))
	}
	crashes, cofail := s.Crashes()
	fmt.Fprintf(&b, "crashes=%d cofailures=%d util=%.12f\n", crashes, cofail, s.Utilization())
	return b.String()
}

// TestCampaignDeterminism: two full E4-style drains from the same
// seed must produce byte-identical accounting — including which user
// is blamed for each OOM crash and every cofailure count. This locks
// in the fixes for map-ordered at-fault selection and epilog order.
func TestCampaignDeterminism(t *testing.T) {
	for _, pol := range []SharingPolicy{PolicyShared, PolicyExclusive, PolicyUserWholeNode} {
		t.Run(pol.String(), func(t *testing.T) {
			a := e4Campaign(t, pol, 4)
			b := e4Campaign(t, pol, 4)
			ta := a.RunAll(100000)
			tb := b.RunAll(100000)
			if ta != tb {
				t.Fatalf("makespans diverged: %d vs %d", ta, tb)
			}
			fa, fb := fingerprint(a), fingerprint(b)
			if fa != fb {
				i := 0
				for i < len(fa) && i < len(fb) && fa[i] == fb[i] {
					i++
				}
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("accounting diverged at byte %d:\nA: …%s\nB: …%s", i, fa[lo:min(i+80, len(fa))], fb[lo:min(i+80, len(fb))])
			}
		})
	}
}

// TestEpilogNodeOrder: multi-node jobs must fire prolog and epilog
// hooks in sorted node order, not map order.
func TestEpilogNodeOrder(t *testing.T) {
	s := New(Config{}, computeNodes(4, 4, 1<<20), 0)
	var prologOrder, epilogOrder []string
	s.AddProlog(func(j *Job, n *simos.Node) error {
		prologOrder = append(prologOrder, n.Name)
		return nil
	})
	s.AddEpilog(func(j *Job, n *simos.Node) error {
		epilogOrder = append(epilogOrder, n.Name)
		return nil
	})
	if _, err := s.Submit(cred(1000), spec(16, 2)); err != nil { // spans all 4 nodes
		t.Fatal(err)
	}
	s.RunAll(10)
	want := []string{"c00", "c01", "c02", "c03"}
	if strings.Join(prologOrder, ",") != strings.Join(want, ",") {
		t.Errorf("prolog order = %v, want %v", prologOrder, want)
	}
	if strings.Join(epilogOrder, ",") != strings.Join(want, ",") {
		t.Errorf("epilog order = %v, want %v", epilogOrder, want)
	}
}

// TestCrashBlamesLowestJobID: when two users both exceed their
// request on one shared node, the at-fault user is always the owner
// of the lowest over-memory job ID — cofailure counts cannot flap
// with map iteration order.
func TestCrashBlamesLowestJobID(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := New(Config{Policy: PolicyShared}, computeNodes(1, 8, 100), 0)
		// Two misbehaving jobs from different users plus one innocent
		// bystander, all sharing the node.
		over := JobSpec{Name: "hog", Command: "x", Cores: 2, MemB: 10, ActualMemB: 500, Duration: 10}
		j1, err := s.Submit(cred(1000), over)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(cred(2000), over); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(cred(3000), JobSpec{Name: "v", Command: "y", Cores: 2, MemB: 10, Duration: 10}); err != nil {
			t.Fatal(err)
		}
		s.Step() // all three start
		s.Step() // OOM fires
		crashes, cofail := s.Crashes()
		if crashes != 1 {
			t.Fatalf("trial %d: crashes = %d, want 1", trial, crashes)
		}
		// Blame belongs to j1's user (lowest job ID): the other hog
		// and the bystander are cofailures — every trial.
		if cofail != 2 {
			t.Fatalf("trial %d: cofailures = %d, want 2 (stable blame on job %d)", trial, cofail, j1)
		}
	}
}

// TestCrashOrderIgnoresPlacementOrder: a node's job set is unordered,
// so a crash must sort it by ID before it blames, fails, runs epilogs
// and records. Here the lower-ID hog (job 2) is backfilled onto the
// node after a higher-ID hog (job 3), behind the bystander job 4 of
// job 3's user, so the set reads [4 3 2]. Blame must still fall on
// job 2's user (cofailures 2, not 1), and the epilogs and accounting
// rows must come in ID order, on an OOM crash and on an external one.
func TestCrashOrderIgnoresPlacementOrder(t *testing.T) {
	for _, external := range []bool{false, true} {
		nodes := computeNodes(1, 8, 100)
		s := New(Config{Policy: PolicyShared}, nodes, 0)
		var epilogs []int
		s.AddEpilog(func(j *Job, _ *simos.Node) error {
			epilogs = append(epilogs, j.ID)
			return nil
		})
		for _, sub := range []struct {
			uid ids.UID
			sp  JobSpec
		}{
			{1000, JobSpec{Name: "filler", Command: "x", Cores: 5, MemB: 10, Duration: 2}},
			// Each hog exceeds its request; together they oversubscribe.
			{1000, JobSpec{Name: "hog-low", Command: "x", Cores: 4, MemB: 10, ActualMemB: 70, Duration: 10}},
			{2000, JobSpec{Name: "hog-high", Command: "x", Cores: 2, MemB: 10, ActualMemB: 40, Duration: 10}},
			{2000, JobSpec{Name: "bystander", Command: "x", Cores: 1, MemB: 10, Duration: 10}},
		} {
			if _, err := s.Submit(cred(sub.uid), sub.sp); err != nil {
				t.Fatal(err)
			}
		}
		s.Step() // jobs 1, 3 and 4 start; job 2 waits for 4 cores
		s.Step()
		s.Step() // job 1 completes, job 2 backfills
		var set []int
		for _, j := range s.nodes[0].jobs {
			set = append(set, j.ID)
		}
		if !slices.Equal(set, []int{4, 3, 2}) {
			t.Fatalf("node job set %v, want the out-of-ID-order [4 3 2] the test needs", set)
		}
		wantCrashes, wantCofail := 1, 2
		if external {
			nodes[0].Crash()
			wantCrashes, wantCofail = 0, 0 // a hardware failure blames no one
		}
		s.Step() // the OOM crash, or the down node's jobs fail
		if crashes, cofail := s.Crashes(); crashes != wantCrashes || cofail != wantCofail {
			t.Fatalf("external=%v: crashes, cofailures = %d, %d; want %d, %d", external, crashes, cofail, wantCrashes, wantCofail)
		}
		if want := []int{1, 2, 3, 4}; !slices.Equal(epilogs, want) {
			t.Fatalf("external=%v: epilogs ran for jobs %v, want %v", external, epilogs, want)
		}
		var rows []string
		for _, r := range s.Sacct(ids.RootCred()) {
			rows = append(rows, fmt.Sprintf("%d %v %d", r.JobID, r.State, r.End))
		}
		if want := []string{"1 CD 3", "2 F 4", "3 F 4", "4 F 4"}; !slices.Equal(rows, want) {
			t.Fatalf("external=%v: accounting rows %q, want %q", external, rows, want)
		}
	}
}
