package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/simos"
)

// partitionCluster: 4 batch nodes "c..", 2 debug nodes "debug..".
func partitionCluster(t *testing.T, policy SharingPolicy) *Scheduler {
	t.Helper()
	var nodes []*simos.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, simos.NewNode(fmt.Sprintf("c%02d", i), simos.Compute, 8, 1<<20, nil))
	}
	for i := 0; i < 2; i++ {
		nodes = append(nodes, simos.NewNode(fmt.Sprintf("debug%d", i), simos.Compute, 8, 1<<20, nil))
	}
	s := New(Config{Policy: policy}, nodes, 0)
	if err := s.AddPartition(Partition{Name: "batch", NodePrefix: "c"}); err != nil {
		t.Fatal(err)
	}
	shared := PolicyShared
	if err := s.AddPartition(Partition{
		Name: "debug", NodePrefix: "debug",
		MaxDuration: 4, MaxCoresPerJob: 4,
		PolicyOverride: &shared,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPartitionPlacementConfined(t *testing.T) {
	s := partitionCluster(t, PolicyUserWholeNode)
	j, err := s.Submit(cred(1000), JobSpec{Name: "b", Command: "x", Partition: "batch", Cores: 8, MemB: 1, Duration: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Submit(cred(1000), JobSpec{Name: "d", Command: "x", Partition: "debug", Cores: 2, MemB: 1, Duration: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	gb, _ := s.Job(j)
	gd, _ := s.Job(d)
	if gb.State != Running || gd.State != Running {
		t.Fatalf("states %v %v", gb.State, gd.State)
	}
	for _, n := range gb.Nodes {
		if n[0] != 'c' {
			t.Errorf("batch job on %s", n)
		}
	}
	for _, n := range gd.Nodes {
		if n[0] != 'd' {
			t.Errorf("debug job on %s", n)
		}
	}
}

func TestPartitionLimits(t *testing.T) {
	s := partitionCluster(t, PolicyUserWholeNode)
	if _, err := s.Submit(cred(1000), JobSpec{Name: "too-long", Command: "x", Partition: "debug", Cores: 1, MemB: 1, Duration: 100}); !errors.Is(err, ErrPartitionLimit) {
		t.Errorf("long debug job err = %v", err)
	}
	if _, err := s.Submit(cred(1000), JobSpec{Name: "too-wide", Command: "x", Partition: "debug", Cores: 8, MemB: 1, Duration: 2}); !errors.Is(err, ErrPartitionLimit) {
		t.Errorf("wide debug job err = %v", err)
	}
	if _, err := s.Submit(cred(1000), JobSpec{Name: "ghost", Command: "x", Partition: "nope", Cores: 1, MemB: 1, Duration: 1}); !errors.Is(err, ErrNoPartition) {
		t.Errorf("ghost partition err = %v", err)
	}
}

func TestPartitionPolicyOverride(t *testing.T) {
	// Cluster policy is user-wholenode, but the debug partition is
	// shared: two users may coexist on a debug node (which is why
	// hidepid stays necessary there, paper §IV-B).
	s := partitionCluster(t, PolicyUserWholeNode)
	a, _ := s.Submit(cred(1000), JobSpec{Name: "a", Command: "x", Partition: "debug", Cores: 2, MemB: 1, Duration: 4})
	b, _ := s.Submit(cred(2000), JobSpec{Name: "b", Command: "x", Partition: "debug", Cores: 2, MemB: 1, Duration: 4})
	s.Step()
	ga, _ := s.Job(a)
	gb, _ := s.Job(b)
	if ga.State != Running || gb.State != Running {
		t.Fatalf("states %v %v", ga.State, gb.State)
	}
	if ga.Nodes[0] != gb.Nodes[0] {
		t.Errorf("debug jobs did not share a node: %v %v", ga.Nodes, gb.Nodes)
	}
	// Batch partition still enforces whole-node-per-user.
	ba, _ := s.Submit(cred(1000), JobSpec{Name: "ba", Command: "x", Partition: "batch", Cores: 2, MemB: 1, Duration: 4})
	bb, _ := s.Submit(cred(2000), JobSpec{Name: "bb", Command: "x", Partition: "batch", Cores: 2, MemB: 1, Duration: 4})
	s.Step()
	gba, _ := s.Job(ba)
	gbb, _ := s.Job(bb)
	if gba.Nodes[0] == gbb.Nodes[0] {
		t.Errorf("batch jobs of two users share node %s", gba.Nodes[0])
	}
}

func TestAddPartitionNoMembers(t *testing.T) {
	s := partitionCluster(t, PolicyShared)
	if err := s.AddPartition(Partition{Name: "empty", NodePrefix: "zz"}); !errors.Is(err, ErrPartitionMembers) {
		t.Errorf("empty partition err = %v", err)
	}
	if got := len(s.Partitions()); got != 2 {
		t.Errorf("partitions = %d", got)
	}
}

func TestDefaultPartitionUsesAllComputeNodes(t *testing.T) {
	s := partitionCluster(t, PolicyShared)
	// A job with no partition can span batch and debug nodes alike.
	j, err := s.Submit(cred(1000), JobSpec{Name: "wide", Command: "x", Cores: 48, MemB: 1, Duration: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	g, _ := s.Job(j)
	if g.State != Running || len(g.Nodes) != 6 {
		t.Errorf("wide job %v on %v", g.State, g.Nodes)
	}
}
