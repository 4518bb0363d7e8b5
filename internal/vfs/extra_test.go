package vfs

import (
	"errors"
	"testing"

	"repro/internal/ids"
)

func TestSymlinkReadThrough(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	if err := fs.WriteFile(alice, "/home/alice/real.txt", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(alice, "/home/alice/real.txt", "/home/alice/link"); err != nil {
		t.Fatal(err)
	}
	real, err := fs.ResolveLinks(alice, "/home/alice/link")
	if err != nil || real != "/home/alice/real.txt" {
		t.Fatalf("resolve = %q, %v", real, err)
	}
	if got, err := fs.ReadFile(alice, real); err != nil || string(got) != "payload" {
		t.Errorf("follow read = %q, %v", got, err)
	}
	// A non-link resolves to itself.
	if real, err := fs.ResolveLinks(alice, "/home/alice/real.txt"); err != nil || real != "/home/alice/real.txt" {
		t.Errorf("resolve of a file = %q, %v", real, err)
	}
	if TypeSymlink.String() != "symlink" {
		t.Error("TypeSymlink.String")
	}
}

func TestSymlinkDanglingAndLoops(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	if err := fs.Symlink(alice, "/home/alice/missing", "/home/alice/dangle"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ResolveLinks(alice, "/home/alice/dangle"); !errors.Is(err, ErrNotExist) {
		t.Errorf("dangling read err = %v", err)
	}
	// Loop: a -> b -> a.
	if err := fs.Symlink(alice, "/home/alice/b", "/home/alice/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(alice, "/home/alice/a", "/home/alice/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ResolveLinks(alice, "/home/alice/a"); !errors.Is(err, ErrSymlinkLoop) {
		t.Errorf("loop read err = %v", err)
	}
	// Duplicate link path.
	if err := fs.Symlink(alice, "/x", "/home/alice/a"); !errors.Is(err, ErrExist) {
		t.Errorf("dup symlink err = %v", err)
	}
}

func TestProtectedSymlinksBlockTmpPlanting(t *testing.T) {
	// The /tmp symlink-planting attack: bob plants a link named like
	// alice's expected scratch file, pointing at a path bob controls.
	// With protected_symlinks, alice's follow is refused.
	fs, _, creds, _ := newWorld(t, Policy{ProtectedSymlinks: true})
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(bob, "/home/bob/trap.txt", []byte("trap"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(bob, "/home/bob/trap.txt", "/tmp/alice-output.tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ResolveLinks(alice, "/tmp/alice-output.tmp"); !errors.Is(err, ErrProtectedSymlink) {
		t.Errorf("planted-link follow err = %v, want ErrProtectedSymlink", err)
	}
	// Write-through is equally refused.
	if err := fs.WriteFileFollow(alice, "/tmp/alice-output.tmp", []byte("secret"), 0o600); !errors.Is(err, ErrProtectedSymlink) {
		t.Errorf("planted-link write err = %v", err)
	}
	// Bob can follow his own link; root can follow anything.
	if _, err := fs.ResolveLinks(bob, "/tmp/alice-output.tmp"); err != nil {
		t.Errorf("own-link follow: %v", err)
	}
	if _, err := fs.ResolveLinks(Ctx(ids.RootCred()), "/tmp/alice-output.tmp"); err != nil {
		t.Errorf("root follow: %v", err)
	}
}

// protectedDir makes a directory at path with mode, owned by owner and
// holding a root-owned file "target", for the protected_symlinks
// exception tests.
func protectedDir(t *testing.T, fs *FS, path string, mode uint32, owner ids.UID) {
	t.Helper()
	root := Ctx(ids.RootCred())
	for _, err := range []error{
		fs.Mkdir(root, path, mode),
		fs.Chmod(root, path, mode),
		fs.WriteFile(root, path+"/target", nil, 0o644),
		fs.Chown(root, path, owner, ids.NoGID),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestProtectedSymlinksFollowDirOwnersLink: in a sticky world-writable
// directory, a link whose owner owns the directory is followed by
// anyone, as Linux's fs.protected_symlinks allows.
func TestProtectedSymlinksFollowDirOwnersLink(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{ProtectedSymlinks: true})
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	protectedDir(t, fs, "/drop", 0o1777, alice.Cred.UID)
	if err := fs.Symlink(alice, "/drop/target", "/drop/link"); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ResolveLinks(bob, "/drop/link"); err != nil || got != "/drop/target" {
		t.Errorf("bob follows the directory owner's link: %q, %v; want it followed", got, err)
	}
}

// TestProtectedSymlinksOnlyInStickyDirs: a world-writable directory
// without the sticky bit is outside protected_symlinks' scope, so
// another user's link there is followed.
func TestProtectedSymlinksOnlyInStickyDirs(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{ProtectedSymlinks: true})
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	protectedDir(t, fs, "/open", 0o777, ids.Root)
	if err := fs.Symlink(bob, "/open/target", "/open/link"); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ResolveLinks(alice, "/open/link"); err != nil || got != "/open/target" {
		t.Errorf("alice follows bob's link in a non-sticky directory: %q, %v; want it followed", got, err)
	}
}

func TestProtectedSymlinksOffBaselineAttackWorks(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	// Bob's trap target must be writable by alice for the harvest to
	// work; chmod it world-writable (no smask in the baseline).
	if err := fs.WriteFile(bob, "/tmp/trap-target", []byte(""), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(bob, "/tmp/trap-target", 0o666); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(bob, "/tmp/trap-target", "/tmp/alice-output.tmp"); err != nil {
		t.Fatal(err)
	}
	// Baseline: alice follows bob's planted link and writes into a
	// bob-readable file.
	if err := fs.WriteFileFollow(alice, "/tmp/alice-output.tmp", []byte("secret"), 0o600); err != nil {
		t.Fatalf("baseline planted write: %v", err)
	}
	got, err := fs.ReadFile(bob, "/tmp/trap-target")
	if err != nil || string(got) != "secret" {
		t.Errorf("bob harvest = %q, %v (attack should work in baseline)", got, err)
	}
}
