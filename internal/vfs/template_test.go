package vfs

import (
	"testing"

	"repro/internal/ids"
)

// TestTemplateMountSharing pins the structural property the XXL
// substrate relies on: a template-backed mount aliases the template's
// tree until first write, a write copies only the inodes on its path,
// and Reset re-aliases the template.
func TestTemplateMountSharing(t *testing.T) {
	reg := ids.NewRegistry()
	proto := New("proto", Policy{}, reg)
	if err := proto.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	if err := proto.CreateTmp("/dev/shm"); err != nil {
		t.Fatal(err)
	}
	tmpl := proto.AsTemplate()

	a := NewFromTemplate("a", Policy{}, reg, tmpl)
	b := NewFromTemplate("b", Policy{}, reg, tmpl)
	if a.root != tmpl.root || b.root != tmpl.root {
		t.Fatal("fresh template mounts must alias the template root")
	}

	// An untouched mount's Reset must keep the alias.
	b.Reset()
	if b.root != tmpl.root {
		t.Fatal("Reset on untouched template mount detached from template")
	}

	// First write detaches the writer's path only.
	cred, err := reg.LoginCredential(ids.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(Ctx(cred), "/tmp/scratch", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if a.root == tmpl.root {
		t.Fatal("write did not detach mount from template")
	}
	if a.root.children["dev"] != tmpl.root.children["dev"] {
		t.Fatal("write to /tmp copied /dev, which is off its path")
	}
	if b.root != tmpl.root {
		t.Fatal("write to one mount detached a sibling")
	}

	// Reset on the touched mount re-aliases the template (pristine was
	// recorded as the template root), rather than keeping the copy.
	a.Reset()
	if a.root != tmpl.root {
		t.Fatal("Reset did not re-alias the template root")
	}
	if _, err := a.stat(Ctx(cred), "/tmp/scratch"); err == nil {
		t.Fatal("post-Reset mount still shows pre-Reset write")
	}
}

// TestFrozenInodesStayFrozen covers each mutator that changes an
// existing inode rather than adding one — Chown's owner and group, Chmod, WriteFile's data and both setfacl edits of
// an existing ACL — on a template mount: the template and a sibling
// mount must not see any of them.
func TestFrozenInodesStayFrozen(t *testing.T) {
	root := Context{Cred: ids.RootCred()}
	proto := New("proto", Policy{}, nil)
	if err := proto.CreateTmp("/tmp"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/tmp/f", "/tmp/g"} {
		if err := proto.WriteFile(root, f, []byte("pristine"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := proto.SetfaclUser(root, f, 1000, 0o4); err != nil {
			t.Fatal(err)
		}
		if err := proto.SetfaclGroup(root, f, 2000, 0o4); err != nil {
			t.Fatal(err)
		}
	}
	tmpl := proto.AsTemplate()
	want := tmpl.root.deepCopy(0)
	a := NewFromTemplate("a", Policy{}, nil, tmpl)
	b := NewFromTemplate("b", Policy{}, nil, tmpl)

	for _, op := range []func() error{
		func() error { return a.Chown(root, "/tmp/g", 1000, 2000) },
		func() error { return a.Chmod(root, "/tmp/g", 0o600) },
		func() error { return a.WriteFile(root, "/tmp/g", []byte("trial"), 0o644) },
		func() error { return a.SetfaclUser(root, "/tmp/g", 1000, 0o6) },
		func() error { return a.SetfaclGroup(root, "/tmp/g", 2000, 0o6) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		if !sameTree(tmpl.root, want) || !sameTree(b.root, want) || !sameTree(a.root, want) {
			t.Fatal("a write on a template mount changed the template")
		}
	}
}
