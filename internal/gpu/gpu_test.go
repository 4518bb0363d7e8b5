package gpu

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/sched"
	"repro/internal/simos"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func gpuCluster(t *testing.T, assignPerms, clear bool) (*sched.Scheduler, *Manager, []*simos.Node) {
	t.Helper()
	var nodes []*simos.Node
	for i := 0; i < 2; i++ {
		nodes = append(nodes, simos.NewNode(fmt.Sprintf("g%02d", i), simos.Compute, 8, 1000, nil))
	}
	s := sched.New(sched.Config{Policy: sched.PolicyUserWholeNode}, nodes, 2)
	m := NewManager(nodes, 2, assignPerms, clear)
	m.Register(s)
	return s, m, nodes
}

// visibleDevs lists the device paths of gpuCluster's node that c can
// open: "GPUs that have not been assigned to a user are not visible at
// all" (paper §IV-F).
func visibleDevs(node *simos.Node, c ids.Credential) []string {
	var out []string
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/dev/nvidia%d", i)
		if _, err := node.OpenDev(c, path); err == nil {
			out = append(out, path)
		}
	}
	return out
}

func gpuJob(uid ids.UID, dur int64) sched.JobSpec {
	return sched.JobSpec{Name: "train", Command: "train.py", Cores: 1, MemB: 1, GPUs: 1, Duration: dur}
}

func TestUnassignedGPUInvisible(t *testing.T) {
	_, _, nodes := gpuCluster(t, true, true)
	if devs := visibleDevs(nodes[0], cred(1000)); len(devs) != 0 {
		t.Errorf("unassigned devices visible: %v", devs)
	}
}

func TestPrologAssignsEpilogRevokes(t *testing.T) {
	s, m, nodes := gpuCluster(t, true, true)
	alice := cred(1000)
	j, err := s.Submit(alice, gpuJob(alice.UID, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	got, _ := s.Job(j)
	if got.State != sched.Running {
		t.Fatalf("job state %v", got.State)
	}
	node := nodes[0]
	if got.Nodes[0] != node.Name {
		node = nodes[1]
	}
	devs := m.Devices(node.Name)
	if devs[0].Assigned() != alice.UID {
		t.Fatalf("device not assigned to alice")
	}
	// Alice can use the device; bob cannot.
	if err := devs[0].Write(alice, 0, []byte("weights")); err != nil {
		t.Errorf("assigned write: %v", err)
	}
	if _, err := devs[0].Read(cred(2000), 0, 7); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("stranger read err = %v, want ErrNotAssigned", err)
	}
	// Visible to alice only.
	if len(visibleDevs(node, alice)) == 0 {
		t.Errorf("assigned device not visible to owner")
	}
	if len(visibleDevs(node, cred(2000))) != 0 {
		t.Errorf("assigned device visible to stranger")
	}
	// After the job, the device is unassigned and invisible again.
	s.RunAll(20)
	if devs[0].Assigned() != ids.NoUID {
		t.Errorf("device still assigned after job end")
	}
	if err := devs[0].Write(alice, 0, []byte("x")); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("post-job write err = %v, want ErrNotAssigned", err)
	}
}

func TestResidueWithoutClear(t *testing.T) {
	// Baseline: no epilog clear, world-accessible devices — the next
	// user reads the previous user's data (paper §IV-F).
	s, m, _ := gpuCluster(t, false, false)
	alice, bob := cred(1000), cred(2000)
	secret := []byte("alice-model-weights")
	ja, _ := s.Submit(alice, gpuJob(alice.UID, 2))
	s.Step()
	got, _ := s.Job(ja)
	node := got.Nodes[0]
	dev := m.Devices(node)[0]
	if err := dev.Write(alice, 100, secret); err != nil {
		t.Fatal(err)
	}
	s.RunAll(20) // alice's job ends; no clear happens

	jb, _ := s.Submit(bob, gpuJob(bob.UID, 2))
	s.Step()
	gb, _ := s.Job(jb)
	if gb.State != sched.Running {
		t.Fatalf("bob's job not running")
	}
	// Bob reads residue.
	residue, err := dev.Read(bob, 100, len(secret))
	if err != nil {
		t.Fatalf("bob read: %v", err)
	}
	if !bytes.Equal(residue, secret) {
		t.Errorf("expected residue leak in baseline, got %q", residue)
	}
}

func TestNoResidueWithClear(t *testing.T) {
	// Enhanced: epilog clears, so bob reads zeros.
	s, m, _ := gpuCluster(t, true, true)
	alice, bob := cred(1000), cred(2000)
	secret := []byte("alice-model-weights")
	ja, _ := s.Submit(alice, gpuJob(alice.UID, 2))
	s.Step()
	got, _ := s.Job(ja)
	dev := m.Devices(got.Nodes[0])[0]
	if err := dev.Write(alice, 100, secret); err != nil {
		t.Fatal(err)
	}
	s.RunAll(20)

	jb, _ := s.Submit(bob, gpuJob(bob.UID, 8))
	s.Step()
	gb, _ := s.Job(jb)
	if gb.State != sched.Running {
		t.Fatalf("bob's job is %v, want Running", gb.State)
	}
	var readable *Device
	for _, d := range m.Devices(gb.Nodes[0]) {
		if d.Assigned() == bob.UID {
			readable = d
		}
	}
	if readable != dev {
		t.Fatalf("bob was assigned another device than alice's; the handover is not tested")
	}
	residue, err := readable.Read(bob, 100, len(secret))
	if err != nil {
		t.Fatalf("bob read: %v", err)
	}
	if bytes.Contains(residue, []byte("alice")) {
		t.Errorf("residue leaked despite epilog clear: %q", residue)
	}
}

func TestDeviceBounds(t *testing.T) {
	node := simos.NewNode("g", simos.Compute, 1, 1, nil)
	d := newDevice(node, 0)
	node.AddDev(d.DevPath, ids.Root, ids.RootGroup, 0o666)
	c := cred(1000)
	if err := d.Write(c, MemSize-1, []byte("ab")); !errors.Is(err, ErrOOB) {
		t.Errorf("oob write err = %v", err)
	}
	if _, err := d.Read(c, -1, 4); !errors.Is(err, ErrOOB) {
		t.Errorf("negative read err = %v", err)
	}
	if err := d.Write(c, MemSize-2, []byte("ab")); err != nil {
		t.Errorf("edge write: %v", err)
	}
}

func TestTwoGPUsSameNodeTwoJobsSameUser(t *testing.T) {
	s, m, _ := gpuCluster(t, true, true)
	alice := cred(1000)
	j1, _ := s.Submit(alice, gpuJob(alice.UID, 5))
	j2, _ := s.Submit(alice, gpuJob(alice.UID, 5))
	s.Step()
	g1, _ := s.Job(j1)
	g2, _ := s.Job(j2)
	if g1.State != sched.Running || g2.State != sched.Running {
		t.Fatalf("states %v %v (user-wholenode allows same-user packing)", g1.State, g2.State)
	}
	if g1.Nodes[0] == g2.Nodes[0] {
		devs := m.Devices(g1.Nodes[0])
		assigned := 0
		for _, d := range devs {
			if d.Assigned() == alice.UID {
				assigned++
			}
		}
		if assigned != 2 {
			t.Errorf("assigned GPUs = %d, want 2", assigned)
		}
	}
}

// TestCPUJobEpilogLeavesGPUAssigned: under PolicyShared a CPU-only job
// ends on a node where another user's GPU job runs. Its epilog must
// not touch the device: the GPU stays assigned to its owner, visible
// to the owner alone and writable by the owner. The GPU job's own end
// still revokes it. This is the Prolog/Epilog pairing Epilog's
// zero-GPU return stands on: only a job that asked for a GPU owns one.
func TestCPUJobEpilogLeavesGPUAssigned(t *testing.T) {
	node := simos.NewNode("g00", simos.Compute, 8, 1000, nil)
	s := sched.New(sched.Config{Policy: sched.PolicyShared}, []*simos.Node{node}, 2)
	m := NewManager([]*simos.Node{node}, 2, true, true)
	m.Register(s)
	alice, bob := cred(1000), cred(2000)
	ja, err := s.Submit(alice, gpuJob(alice.UID, 5))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.Submit(bob, sched.JobSpec{Name: "cpu", Command: "solve", Cores: 1, MemB: 1, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Step() // both start on the one node
	s.Step() // bob's CPU job ends and its epilog runs
	if got, _ := s.Job(jb); got.State != sched.Completed {
		t.Fatalf("cpu job state %v, want completed", got.State)
	}
	if got, _ := s.Job(ja); got.State != sched.Running {
		t.Fatalf("gpu job state %v, want running", got.State)
	}
	dev := m.Devices(node.Name)[0]
	if dev.Assigned() != alice.UID {
		t.Fatalf("device assigned to %d after the cpu job ended, want alice", dev.Assigned())
	}
	if len(visibleDevs(node, alice)) != 1 {
		t.Errorf("owner sees %v, want the one device", visibleDevs(node, alice))
	}
	if devs := visibleDevs(node, bob); len(devs) != 0 {
		t.Errorf("device visible to bob: %v", devs)
	}
	if err := dev.Write(alice, 0, []byte("weights")); err != nil {
		t.Errorf("owner write after the cpu job ended: %v", err)
	}
	s.RunAll(20) // alice's GPU job ends
	if dev.Assigned() != ids.NoUID {
		t.Errorf("device still assigned to %d after the gpu job ended", dev.Assigned())
	}
	if err := dev.Write(alice, 0, []byte("x")); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("post-job write err = %v, want ErrNotAssigned", err)
	}
}

// TestWrittenExtent checks the memory model behind the residue: a
// device stores bytes only up to the highest one written. Under
// baseline (world-accessible devices, ClearOnRelease off) the next user
// reads exactly the residue at its offsets and zeros everywhere else,
// past the written extent included; a clear zeroes the extent, after
// which every byte reads zero and the storage is kept for the next
// write.
func TestWrittenExtent(t *testing.T) {
	node := simos.NewNode("g", simos.Compute, 1, 1, nil)
	m := NewManager([]*simos.Node{node}, 1, false, false)
	d := m.Devices(node.Name)[0]
	alice, bob := cred(1000), cred(2000)
	want := make([]byte, 256)
	for _, w := range []struct {
		off  int
		data string
	}{{100, "bb"}, {10, "aaaa"}, {12, "AA"}} {
		if err := d.Write(alice, w.off, []byte(w.data)); err != nil {
			t.Fatal(err)
		}
		copy(want[w.off:], w.data)
	}
	if len(d.mem) != 102 {
		t.Errorf("written extent = %d bytes, want 102 (the highest byte written)", len(d.mem))
	}
	for _, r := range []struct{ off, n int }{{0, 256}, {10, 4}, {101, 20}, {150, 50}, {MemSize - 8, 8}} {
		got, err := d.Read(bob, r.off, r.n)
		if err != nil {
			t.Fatal(err)
		}
		exp := make([]byte, r.n)
		if r.off < len(want) {
			copy(exp, want[r.off:])
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("read [%d,%d) = %q, want %q", r.off, r.off+r.n, got, exp)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Read(bob, 0, 256); err != nil || !bytes.Equal(got, make([]byte, 256)) {
		t.Errorf("cleared device reads %q, %v; want zeros", got, err)
	}
	if len(d.mem) != 0 || cap(d.mem) < 102 {
		t.Errorf("cleared device holds %d bytes of capacity %d, want none of at least 102", len(d.mem), cap(d.mem))
	}
	if err := d.Write(alice, 4, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Read(bob, 0, 8); !bytes.Equal(got, []byte{0, 0, 0, 0, 'z', 0, 0, 0}) {
		t.Errorf("write after clear reads back %q", got)
	}
}
