package vfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ids"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

// fileInfo is what a test reads of an inode.
type fileInfo struct {
	Type  FileType
	Owner ids.UID
	Group ids.GID
	Mode  uint32
	Size  int64
	ACL   *ACL // a copy; nil if none
}

// stat reads path's inode as ctx; like stat(2), it needs search
// permission on the parents only.
func (fs *FS) stat(ctx Context, path string) (*fileInfo, error) {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return nil, err
	}
	return &fileInfo{Type: n.typ, Owner: n.owner, Group: n.group, Mode: n.mode, Size: int64(len(n.data)), ACL: n.acl.Clone()}, nil
}

// access reports whether ctx holds want on path, like access(2).
func (fs *FS) access(ctx Context, path string, want uint32) bool {
	n, err := fs.walk(ctx, path)
	return err == nil && fs.can(ctx.Cred, n, want)
}

// groupEntry returns the named-group bits for gid, if present.
func (a *ACL) groupEntry(gid ids.GID) (uint32, bool) {
	for _, e := range a.Groups {
		if e.GID == gid {
			return e.Bits, true
		}
	}
	return 0, false
}

// newWorld builds a registry with alice, bob, carol, a project group
// {alice,bob}, and a plain FS with the given policy.
func newWorld(t *testing.T, policy Policy) (*FS, *ids.Registry, map[string]ids.Credential, ids.GID) {
	t.Helper()
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	bob, _ := reg.AddUser("bob")
	carol, _ := reg.AddUser("carol")
	proj, err := reg.AddProjectGroup("proj", alice.UID)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AddToGroup(alice.UID, proj.GID, bob.UID); err != nil {
		t.Fatal(err)
	}
	fs := New("shared", policy, reg)
	creds := make(map[string]ids.Credential)
	for _, u := range []*ids.User{alice, bob, carol} {
		c, err := reg.LoginCredential(u.UID)
		if err != nil {
			t.Fatal(err)
		}
		creds[u.Name] = c
		if err := fs.CreateHome(u); err != nil {
			t.Fatalf("CreateHome(%s): %v", u.Name, err)
		}
	}
	return fs, reg, creds, proj.GID
}

func TestWriteReadRoundtrip(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	ctx := Ctx(creds["alice"])
	if err := fs.WriteFile(ctx, "/home/alice/data.txt", []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ctx, "/home/alice/data.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("read %q", got)
	}
}

func TestHomeDirectoryIsolation(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(alice, "/home/alice/secret", []byte("s3cret"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Even with 0644 on the file, bob cannot traverse alice's home:
	// it is root-owned, group = alice's private group, mode 0770.
	if _, err := fs.ReadFile(bob, "/home/alice/secret"); !errors.Is(err, ErrPermission) {
		t.Errorf("cross-home read err = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadDir(bob, "/home/alice"); !errors.Is(err, ErrPermission) {
		t.Errorf("cross-home readdir err = %v, want ErrPermission", err)
	}
}

func TestUserCannotChmodTopLevelHome(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	// Home is owned by root; alice is not the owner, so chmod fails —
	// the exact mechanism the paper uses to stop users opening their
	// home to the world (§IV-C).
	if err := fs.Chmod(alice, "/home/alice", 0o777); !errors.Is(err, ErrPermission) {
		t.Errorf("chmod own home err = %v, want ErrPermission", err)
	}
}

func TestUmaskAppliesAtCreate(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	ctx := Context{Cred: creds["alice"], Umask: 0o077}
	if err := fs.WriteFile(ctx, "/home/alice/f", nil, 0o666); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.stat(ctx, "/home/alice/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode != 0o600 {
		t.Errorf("mode = %o, want 600", fi.Mode)
	}
}

func TestTmpFilenameLeakResidualChannel(t *testing.T) {
	// Paper §V: file *names* in world-writable dirs remain a leak
	// path even under the enhanced config.
	fs, _, creds, _ := newWorld(t, Policy{SmaskEnabled: true, Smask: DefaultSmask, ACLRestrict: true})
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(alice, "/tmp/projectX-run42.tmp", []byte("data"), 0o600); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(bob, "/tmp")
	if err != nil {
		t.Fatalf("bob readdir /tmp: %v", err)
	}
	found := false
	for _, n := range names {
		if n == "projectX-run42.tmp" {
			found = true
		}
	}
	if !found {
		t.Errorf("residual channel closed unexpectedly: names=%v", names)
	}
	// Contents remain protected.
	if _, err := fs.ReadFile(bob, "/tmp/projectX-run42.tmp"); !errors.Is(err, ErrPermission) {
		t.Errorf("content read err = %v, want ErrPermission", err)
	}
}

func TestProjectDirSetgidInheritance(t *testing.T) {
	fs, reg, creds, projGID := newWorld(t, Policy{})
	g, _ := reg.Group(projGID)
	if err := fs.CreateProjectDir("/proj/demo", g); err != nil {
		t.Fatal(err)
	}
	alice := Ctx(creds["alice"])
	// Alice (member) can write; file inherits the project group.
	if err := fs.WriteFile(alice, "/proj/demo/shared.dat", []byte("d"), 0o660); err != nil {
		t.Fatalf("member write: %v", err)
	}
	fi, err := fs.stat(alice, "/proj/demo/shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Group != projGID {
		t.Errorf("setgid inheritance: file group = %d, want %d", fi.Group, projGID)
	}
	// Bob (member) can read it through the group bits.
	if _, err := fs.ReadFile(Ctx(creds["bob"]), "/proj/demo/shared.dat"); err != nil {
		t.Errorf("fellow member read: %v", err)
	}
	// Carol (non-member) cannot even enter.
	if _, err := fs.ReadFile(Ctx(creds["carol"]), "/proj/demo/shared.dat"); !errors.Is(err, ErrPermission) {
		t.Errorf("non-member read err = %v, want ErrPermission", err)
	}
	// Subdirectories keep the setgid bit.
	if err := fs.Mkdir(alice, "/proj/demo/sub", 0o770); err != nil {
		t.Fatal(err)
	}
	sub, _ := fs.stat(alice, "/proj/demo/sub")
	if sub.Mode&ModeSetgid == 0 || sub.Group != projGID {
		t.Errorf("subdir mode=%o group=%d, want setgid + project group", sub.Mode, sub.Group)
	}
}

func TestChgrpOnlyToMemberGroups(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, Policy{})
	alice, carol := Ctx(creds["alice"]), Ctx(creds["carol"])
	if err := fs.WriteFile(alice, "/home/alice/f", nil, 0o660); err != nil {
		t.Fatal(err)
	}
	// Alice is in proj: chgrp to proj succeeds.
	if err := fs.Chown(alice, "/home/alice/f", ids.NoUID, projGID); err != nil {
		t.Errorf("chgrp to member group: %v", err)
	}
	// Carol writes a file and tries to chgrp to proj (not a member).
	if err := fs.WriteFile(carol, "/home/carol/f", nil, 0o660); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(carol, "/home/carol/f", ids.NoUID, projGID); !errors.Is(err, ErrPermission) {
		t.Errorf("chgrp to non-member group err = %v, want ErrPermission", err)
	}
	// chown (owner change) is root-only.
	if err := fs.Chown(alice, "/home/alice/f", creds["bob"].UID, ids.NoGID); !errors.Is(err, ErrPermission) {
		t.Errorf("non-root chown err = %v, want ErrPermission", err)
	}
	if err := fs.Chown(Ctx(ids.RootCred()), "/home/alice/f", creds["bob"].UID, ids.NoGID); err != nil {
		t.Errorf("root chown: %v", err)
	}
}

func TestMkdirAllAndNotDirErrors(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	if err := fs.MkdirAll(alice, "/home/alice/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.stat(alice, "/home/alice/a/b/c"); err != nil {
		t.Errorf("MkdirAll did not create: %v", err)
	}
	if err := fs.WriteFile(alice, "/home/alice/file", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(alice, "/home/alice/file/sub", 0o755); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdir under file err = %v, want ErrNotDir", err)
	}
	if _, err := fs.ReadFile(alice, "/home/alice/a"); !errors.Is(err, ErrIsDir) {
		t.Errorf("read dir err = %v, want ErrIsDir", err)
	}
}

func TestRelativePathRejected(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	if err := fs.WriteFile(Ctx(creds["alice"]), "relative/path", nil, 0o644); !errors.Is(err, ErrInvalid) {
		t.Errorf("relative path err = %v, want ErrInvalid", err)
	}
}

func TestDotDotCannotEscapeRoot(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	if err := fs.WriteFile(alice, "/home/alice/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// /../home/alice/f normalizes inside the tree.
	if _, err := fs.ReadFile(alice, "/../home/alice/../alice/f"); err != nil {
		t.Errorf("normalized read: %v", err)
	}
}

func TestWriteFileOverwriteNeedsW(t *testing.T) {
	fs, _, creds, _ := newWorld(t, Policy{})
	alice := Ctx(creds["alice"])
	if err := fs.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(alice, "/tmp/f", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	bob := Ctx(creds["bob"])
	// 0644: bob can read but not overwrite.
	if _, err := fs.ReadFile(bob, "/tmp/f"); err != nil {
		t.Errorf("world-readable read: %v", err)
	}
	if err := fs.WriteFile(bob, "/tmp/f", []byte("v2"), 0o644); !errors.Is(err, ErrPermission) {
		t.Errorf("overwrite err = %v, want ErrPermission", err)
	}
}

func TestNamespaceRouting(t *testing.T) {
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	shared := New("lustre", Policy{}, reg)
	local := New("local", Policy{}, reg)
	if err := shared.CreateHome(alice); err != nil {
		t.Fatal(err)
	}
	// The local FS carries its own /tmp tree; the namespace routes
	// the /tmp prefix to it with the path unchanged.
	if err := local.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	ns := NewNamespace()
	if err := ns.Mount("/", shared); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/tmp", local); err != nil {
		t.Fatal(err)
	}
	ac, _ := reg.LoginCredential(alice.UID)
	ctx := Ctx(ac)
	if err := ns.WriteFile(ctx, "/home/alice/f", []byte("shared-data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ns.WriteFile(ctx, "/tmp/t", []byte("local-data"), 0o600); err != nil {
		t.Fatal(err)
	}
	// The file written under /tmp must live in the local FS.
	if _, err := local.ReadFile(ctx, "/tmp/t"); err != nil {
		t.Errorf("local fs missing /tmp/t: %v", err)
	}
	if _, err := shared.stat(ctx, "/tmp/t"); !errors.Is(err, ErrNotExist) {
		t.Errorf("shared fs unexpectedly has /tmp/t: %v", err)
	}
	// Longest-prefix: /tmp wins over /.
	if got, err := ns.ReadFile(ctx, "/tmp/t"); err != nil || string(got) != "local-data" {
		t.Errorf("ns read /tmp/t = %q, %v", got, err)
	}
	if _, _, err := ns.Resolve("rel"); !errors.Is(err, ErrInvalid) {
		t.Errorf("Resolve(rel) err = %v", err)
	}
}

func TestNamespaceNoMount(t *testing.T) {
	ns := NewNamespace()
	local := New("local", Policy{}, nil)
	if err := ns.Mount("/tmp", local); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.Resolve("/home/x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("unmounted path err = %v, want ErrNotExist", err)
	}
}

func TestNamespacePassthroughs(t *testing.T) {
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	shared := New("root", Policy{}, reg)
	if err := shared.CreateHome(alice); err != nil {
		t.Fatal(err)
	}
	ns := NewNamespace()
	if err := ns.Mount("/", shared); err != nil {
		t.Fatal(err)
	}
	ac, _ := reg.LoginCredential(alice.UID)
	ctx := Ctx(ac)
	if err := shared.Mkdir(ctx, "/home/alice/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ns.WriteFile(ctx, "/home/alice/dir/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := ns.ReadDir(ctx, "/home/alice/dir")
	if err != nil || len(names) != 1 || names[0] != "f" {
		t.Errorf("ReadDir = %v, %v", names, err)
	}
	if got, err := ns.ReadFile(ctx, "/home/alice/dir/f"); err != nil || string(got) != "x" {
		t.Errorf("ReadFile = %q, %v", got, err)
	}
	// Unmounted-path errors propagate through every helper.
	empty := NewNamespace()
	if err := empty.WriteFile(ctx, "/x", nil, 0o644); !errors.Is(err, ErrNotExist) {
		t.Errorf("empty ns WriteFile err = %v", err)
	}
	if _, err := empty.ReadFile(ctx, "/x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("empty ns ReadFile err = %v", err)
	}
	if _, err := empty.ReadDir(ctx, "/x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("empty ns ReadDir err = %v", err)
	}
	if err := empty.Mount("relative", shared); !errors.Is(err, ErrInvalid) {
		t.Errorf("relative mount err = %v", err)
	}
}
