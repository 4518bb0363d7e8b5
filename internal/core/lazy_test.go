package core

import (
	"testing"
)

// TestUntouchedResetAllocFree pins the XXL contract: Reset() and
// MarkPristine() on a cluster that has run no trial do zero allocation
// and no per-node work beyond an O(1) check. Every subsystem reaches its fast path — the registry and
// scheduler via gen counters, per-node mounts via the vfs pointer
// swap, GPU/netsim via their managers' dirty flags — so trial turnaround on
// a 10k-node substrate is not O(nodes).
func TestUntouchedResetAllocFree(t *testing.T) {
	topo := Topology{
		ComputeNodes: 256,
		LoginNodes:   2,
		CoresPerNode: 16,
		MemPerNode:   1 << 30,
		GPUsPerNode:  2,
	}
	c := MustNew(Enhanced(), topo)
	// One warm-up: the first Reset may settle one-time lazy state.
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset on untouched cluster allocated %.1f times per run; want 0", allocs)
	}
	// Re-marking an untouched cluster keeps every component's mark.
	if allocs := testing.AllocsPerRun(10, c.MarkPristine); allocs != 0 {
		t.Fatalf("MarkPristine on untouched cluster allocated %.1f times per run; want 0", allocs)
	}
}

// TestTouchedResetStillAllocFreeWhenDrained pins that a cluster which
// ran a trial and was Reset once is indistinguishable from pristine:
// the second Reset is again allocation-free.
func TestResetReturnsToFastPath(t *testing.T) {
	c := MustNew(Enhanced(), Topology{
		ComputeNodes: 16,
		LoginNodes:   1,
		CoresPerNode: 8,
		MemPerNode:   1 << 30,
		GPUsPerNode:  1,
	})
	if _, err := c.AddUser("transient", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset after rewind allocated %.1f times per run; want 0", allocs)
	}
}
