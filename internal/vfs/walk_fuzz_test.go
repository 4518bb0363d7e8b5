package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
)

// The split-and-join walk the vfs used before it resolved paths in
// place, kept as the reference FuzzPathWalk checks the walk against:
// same inode, same error text, same tree after MkdirAll.

// refSplitPath normalizes and splits an absolute path.
func refSplitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: path %q not absolute", ErrInvalid, path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

func (fs *FS) refWalk(ctx Context, path string) (*inode, error) {
	parts, err := refSplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	for i, part := range parts {
		if cur.typ != TypeDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		if !fs.can(ctx.Cred, cur, 1) {
			return nil, fmt.Errorf("%w: search %q", ErrPermission, "/"+strings.Join(parts[:i], "/"))
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		cur = next
	}
	return cur, nil
}

func (fs *FS) refWalkParent(ctx Context, path string) (*inode, string, error) {
	parts, err := refSplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: cannot operate on /", ErrInvalid)
	}
	dir, err := fs.refWalk(ctx, "/"+strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return nil, "", err
	}
	if dir.typ != TypeDir {
		return nil, "", fmt.Errorf("%w: parent of %s", ErrNotDir, path)
	}
	return dir, parts[len(parts)-1], nil
}

// refMkdirAll runs Mkdir on every prefix of the path and ignores
// ErrExist.
func (fs *FS) refMkdirAll(ctx Context, path string, mode uint32) error {
	parts, err := refSplitPath(path)
	if err != nil {
		return err
	}
	for i := range parts {
		p := "/" + strings.Join(parts[:i+1], "/")
		err := fs.refMkdir(ctx, p, mode)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

func (fs *FS) refMkdir(ctx Context, path string, mode uint32) error {
	dir, name, err := fs.refWalkParent(ctx, path)
	if err != nil {
		return err
	}
	if _, dup := dir.children[name]; dup {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	if !fs.can(ctx.Cred, dir, 3) {
		return fmt.Errorf("%w: mkdir %s", ErrPermission, path)
	}
	fs.mkdirIn(ctx, fs.own(parentOf(path)), name, mode)
	return nil
}

// fuzzCreds are the callers of a fuzzed walk: root, the owner of part
// of the tree, another member of its project group 2000, and a
// stranger.
var fuzzCreds = []ids.Credential{
	ids.RootCred(),
	{UID: 1000, EGID: 1000, Groups: []ids.GID{1000, 2000}},
	{UID: 1001, EGID: 1001, Groups: []ids.GID{1001, 2000}},
	{UID: 1002, EGID: 1002, Groups: []ids.GID{1002}},
}

var (
	fuzzNames  = []string{"a", "b", "f", "n", "t"}
	fuzzComps  = []string{"a", "b", "f", "n", "t", "x", ".", "..", "", "..."}
	fuzzModes  = []uint32{0o755, 0o700, 0o600, 0o2770, 0o1777, 0o000, 0o711, 0o750}
	fuzzUmasks = []uint32{0o022, 0o077, 0o000, 0o100}
	fuzzGroups = []ids.GID{ids.RootGroup, 1000, 1001, 1002, 2000}
)

// fuzzInput hands out the fuzzer's bytes one at a time, zero once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) pick(n int) int { return int(in.next()) % n }

// path decodes a path of up to six components: absolute unless the
// low bits say otherwise, sometimes with a trailing slash.
func (in *fuzzInput) path() string {
	flags := in.next()
	n := int(flags>>4) % 7
	var b strings.Builder
	if flags&7 != 0 {
		b.WriteByte('/')
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(fuzzComps[in.pick(len(fuzzComps))])
	}
	if flags&8 != 0 {
		b.WriteByte('/')
	}
	return b.String()
}

// fuzzTree builds the fixed part of the fuzzed tree — a file mid-path
// (/a/f), a directory only some callers may search (/a/b), one nobody
// but root may search (/n) and a sticky /tmp-like /t — and then adds
// up to seven nodes the input describes. It writes inodes directly,
// so it first owns the root: New's root is the frozen empty root every
// mount shares.
func fuzzTree(in *fuzzInput) *FS {
	b := in.next()
	fs := New("fuzz", Policy{SmaskEnabled: b&1 == 0, Smask: DefaultSmask, ACLRestrict: b&2 == 0}, nil)
	dirs := []*inode{fs.own("/")}
	add := func(dir *inode, name string, typ FileType, owner ids.UID, group ids.GID, mode uint32) {
		n := &inode{name: name, typ: typ, owner: owner, group: group, mode: mode, epoch: fs.epoch}
		if typ == TypeDir {
			n.children = make(map[string]*inode)
			dirs = append(dirs, n)
		}
		dir.children[name] = n
	}
	add(fs.root, "a", TypeDir, ids.Root, ids.RootGroup, 0o755)
	a := fs.root.children["a"]
	add(a, "b", TypeDir, 1000, 2000, 0o750)
	add(a.children["b"], "f", TypeFile, 1000, 2000, 0o640)
	add(a, "f", TypeFile, ids.Root, ids.RootGroup, 0o644)
	add(fs.root, "n", TypeDir, ids.Root, ids.RootGroup, 0o644)
	add(fs.root, "t", TypeDir, ids.Root, ids.RootGroup, 0o1777)
	add(fs.root.children["t"], "b", TypeDir, 1001, 1001, 0o700)
	for k := in.pick(8); k > 0; k-- {
		dir := dirs[in.pick(len(dirs))]
		name := fuzzNames[in.pick(len(fuzzNames))]
		typ := []FileType{TypeDir, TypeFile, TypeSymlink}[in.pick(3)]
		owner := fuzzCreds[in.pick(len(fuzzCreds))].UID
		group := fuzzGroups[in.pick(len(fuzzGroups))]
		mode := (uint32(in.next())<<8 | uint32(in.next())) & permMask
		if _, dup := dir.children[name]; !dup {
			add(dir, name, typ, owner, group, mode)
		}
	}
	return fs
}

// deepCopy clones the inode subtree, stamping every copy with epoch:
// a copy stamped with a mount's epoch is one that mount changes in
// place. ACLs and file data are copied; the result shares nothing with
// the original.
func (n *inode) deepCopy(epoch uint64) *inode {
	c := &inode{name: n.name, typ: n.typ, owner: n.owner, group: n.group, mode: n.mode, epoch: epoch, target: n.target}
	if n.data != nil {
		c.data = append([]byte(nil), n.data...)
	}
	if n.children != nil {
		c.children = make(map[string]*inode, len(n.children))
		for name, child := range n.children {
			c.children[name] = child.deepCopy(epoch)
		}
	}
	c.acl = n.acl.Clone()
	return c
}

// sameTree reports whether two inode trees are equal in every field
// the vfs keeps but the epoch.
func sameTree(a, b *inode) bool {
	if a.name != b.name || a.typ != b.typ || a.owner != b.owner || a.group != b.group ||
		a.mode != b.mode || !bytes.Equal(a.data, b.data) || a.target != b.target || !sameACL(a.acl, b.acl) ||
		len(a.children) != len(b.children) || (a.children == nil) != (b.children == nil) {
		return false
	}
	for name, ca := range a.children {
		cb, ok := b.children[name]
		if !ok || !sameTree(ca, cb) {
			return false
		}
	}
	return true
}

func sameACL(a, b *ACL) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Users, b.Users) && slices.Equal(a.Groups, b.Groups)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pathWalkSeed is a deterministic seed input of n bytes.
func pathWalkSeed(i uint64, n int) []byte {
	r := rand.New(rand.NewPCG(i, 35))
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(r.Uint32())
	}
	return b
}

// FuzzPathWalk decodes bytes into a small tree and a sequence of
// walk, walkParent and MkdirAll calls on paths with "..", ".", "//",
// trailing slashes, relative paths, "/", files mid-path and
// directories the caller may not search, under varying credentials.
// Each call must give the reference split-and-join walk's inode (the
// same pointer) and its error text byte for byte; MkdirAll runs on
// two copies of the tree, one per implementation, which must stay
// equal.
func FuzzPathWalk(f *testing.F) {
	for i := uint64(0); i < 48; i++ {
		f.Add(pathWalkSeed(i, 160))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		fs := fuzzTree(&in)
		ref := New("ref", fs.Policy, nil)
		ref.root = fs.root.deepCopy(ref.epoch)
		for op := 0; op < 48 && len(in) > 0; op++ {
			kind := in.pick(3)
			ctx := Context{Cred: fuzzCreds[in.pick(len(fuzzCreds))], Umask: fuzzUmasks[in.pick(len(fuzzUmasks))]}
			p := in.path()
			switch kind {
			case 0:
				got, err := fs.walk(ctx, p)
				want, wantErr := fs.refWalk(ctx, p)
				if got != want || errText(err) != errText(wantErr) {
					t.Fatalf("walk(uid %d, %q) = %p, %v; reference %p, %v", ctx.Cred.UID, p, got, err, want, wantErr)
				}
			case 1:
				dir, name, err := fs.walkParent(ctx, p)
				wantDir, wantName, wantErr := fs.refWalkParent(ctx, p)
				if dir != wantDir || name != wantName || errText(err) != errText(wantErr) {
					t.Fatalf("walkParent(uid %d, %q) = %p, %q, %v; reference %p, %q, %v",
						ctx.Cred.UID, p, dir, name, err, wantDir, wantName, wantErr)
				}
			case 2:
				mode := fuzzModes[in.pick(len(fuzzModes))]
				err := fs.MkdirAll(ctx, p, mode)
				wantErr := ref.refMkdirAll(ctx, p, mode)
				if errText(err) != errText(wantErr) {
					t.Fatalf("MkdirAll(uid %d, %q, %o) = %v; reference %v", ctx.Cred.UID, p, mode, err, wantErr)
				}
				if !sameTree(fs.root, ref.root) {
					t.Fatalf("MkdirAll(uid %d, %q, %o) left a tree unlike the reference's", ctx.Cred.UID, p, mode)
				}
			}
		}
	})
}
