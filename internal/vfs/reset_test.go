package vfs

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/ids"
)

// The FS Reset contract: every mutation since MarkPristine — files,
// directories, symlinks, renames, mode/owner changes, ACLs — rolls
// back, and Reset itself costs nothing, touched mount or not.

func TestFSResetRollsBackEverything(t *testing.T) {
	fs := New("t", Policy{}, nil)
	root := Context{Cred: ids.RootCred()}
	alice := Ctx(ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}})
	if err := fs.MkdirAll(root, "/scratch/shared", 0o777); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(root, "/scratch/keep", []byte("pristine"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.MarkPristine()

	// Dirty it every way the API allows.
	if err := fs.WriteFile(alice, "/scratch/shared/f", []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(alice, "/scratch/shared/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(alice, "/scratch/keep", "/scratch/shared/lnk"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(root, "/scratch/keep", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/scratch/keep", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclUser(root, "/scratch/keep", 1000, 0o6); err != nil {
		t.Fatal(err)
	}

	fs.Reset()

	if _, err := fs.stat(root, "/scratch/shared/g"); !errors.Is(err, ErrNotExist) {
		t.Errorf("renamed file survived Reset: %v", err)
	}
	if _, err := fs.stat(root, "/scratch/shared/d"); !errors.Is(err, ErrNotExist) {
		t.Errorf("directory survived Reset: %v", err)
	}
	fi, err := fs.stat(root, "/scratch/keep")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode != 0o644 || fi.Owner != ids.Root || fi.ACL != nil || fi.Size != int64(len("pristine")) {
		t.Errorf("pristine file not restored: mode %o owner %d acl %v size %d", fi.Mode, fi.Owner, fi.ACL, fi.Size)
	}
}

// Reset must survive multiple rounds: the pristine mark may not be
// consumed or aliased by the restore.
func TestFSResetRepeatable(t *testing.T) {
	fs := New("t", Policy{}, nil)
	root := Context{Cred: ids.RootCred()}
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	fs.MarkPristine()
	for round := 0; round < 3; round++ {
		if err := fs.WriteFile(root, "/tmp/f", []byte("x"), 0o644); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fs.Reset()
		names, err := fs.ReadDir(root, "/tmp")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(names) != 0 {
			t.Fatalf("round %d: /tmp has %v after Reset", round, names)
		}
	}
}

// Reset is a pointer swap: it allocates nothing on an untouched mount
// (the per-node /tmp mounts of a pooled cluster) and nothing on a
// mount a trial wrote to (the shared /home every AddUser writes).
func TestFSResetUntouchedIsFree(t *testing.T) {
	fs := New("t", Policy{}, nil)
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	fs.MarkPristine()
	if allocs := testing.AllocsPerRun(10, fs.Reset); allocs > 0 {
		t.Errorf("Reset on untouched mount allocates %.1f objects", allocs)
	}
	root := Context{Cred: ids.RootCred()}
	var ms runtime.MemStats
	for round := 0; round < 3; round++ {
		if err := fs.MkdirAll(root, "/tmp/a/b", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(root, "/tmp/a/f", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fs.Reset()
		runtime.ReadMemStats(&ms)
		if allocs := ms.Mallocs - before; allocs > 0 {
			t.Errorf("round %d: Reset on a touched mount allocates %d objects", round, allocs)
		}
	}
}
