//go:build !race

package vfs

import (
	"runtime/debug"
	"testing"

	"repro/internal/ids"
)

// exactAllocs is testing.AllocsPerRun with the collector off, so a GC
// between the warm-up and the measured runs cannot count against op.
func exactAllocs(runs int, op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, op)
}

// TestWalkAllocs pins the allocations of the permission-checked walk:
// resolving a clean path indexes into it, so a lookup that succeeds
// allocates nothing, and CreateHome allocates only the inodes and map
// storage it adds. The race detector allocates on its own account, so
// this builds only without -race.
func TestWalkAllocs(t *testing.T) {
	root := Context{Cred: ids.RootCred()}
	alice := Ctx(cred(1000))
	fs := New("t", Policy{SmaskEnabled: true, Smask: DefaultSmask}, nil)
	if err := fs.MkdirAll(root, "/proj/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/proj/a/b/data", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	u := &ids.User{UID: 1000, Name: "alice", Primary: 1000, HomePath: "/home/alice"}
	for _, tc := range []struct {
		name string
		op   func() error
		want float64
	}{
		{"ResolveLinks", func() error { _, err := fs.ResolveLinks(alice, "/proj/a/b"); return err }, 0},
		{"MkdirAll/existing", func() error { return fs.MkdirAll(alice, "/proj/a/b", 0o755) }, 0},
		{"Chown/root", func() error { return fs.Chown(root, "/proj/a/b/data", ids.Root, ids.RootGroup) }, 0},
		// A fresh mount per run: its root inode and root map (the FS
		// itself stays on the stack), then for each of /home and
		// /home/alice an inode, a child map and the map group its
		// parent's first child entry takes.
		{"CreateHome", func() error { return New("h", Policy{}, nil).CreateHome(u) }, 8},
	} {
		var err error
		got := exactAllocs(20, func() { err = tc.op() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s allocates %v per call, pinned at %v", tc.name, got, tc.want)
		}
	}
}
