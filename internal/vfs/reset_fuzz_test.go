package vfs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
)

// refMount holds a mount under test to the restore the vfs made before
// its tree became persistent: a deep copy at the mark, mutation in
// place, a deep copy back at Reset. Its FS owns every inode of its
// tree, so each mutator's own copies nothing and it changes the tree
// in place, through the same checks the mount under test runs.
type refMount struct {
	fs       *FS
	pristine *inode
}

func newRefMount(fs *FS) *refMount {
	ref := New("ref:"+fs.Name, fs.Policy, nil)
	ref.root = fs.root.deepCopy(ref.epoch)
	return &refMount{fs: ref, pristine: fs.pristine.deepCopy(0)}
}

func (r *refMount) mark()  { r.pristine = r.fs.root.deepCopy(0) }
func (r *refMount) reset() { r.fs.root = r.pristine.deepCopy(r.fs.epoch) }

// resetPaths are the paths a decoded call names three times in four:
// nodes fuzzTree always builds, their children-to-be and one that
// walks through "..", so many calls pass their checks and write.
var resetPaths = []string{
	"/a", "/a/b", "/a/b/f", "/a/f", "/a/g", "/a/b/g", "/a/b/g/f",
	"/t", "/t/b", "/t/f", "/t/g", "/t/b/f", "/n", "/n/f", "/x", "/t/../a/b",
}

// vfsCall is one decoded mutator call.
type vfsCall struct {
	op   int
	ctx  Context
	p, q string
	uid  ids.UID
	gid  ids.GID
	mode uint32
	data []byte
}

var vfsCallNames = []string{
	"Mkdir", "MkdirAll", "WriteFile", "Chmod", "Symlink",
	"Chown", "SetfaclUser", "SetfaclGroup",
}

func (in *fuzzInput) resetPath() string {
	if in.pick(4) == 0 {
		return in.path()
	}
	return resetPaths[in.pick(len(resetPaths))]
}

func (in *fuzzInput) call() vfsCall {
	c := vfsCall{
		op: in.pick(len(vfsCallNames)),
		// Root and uid 1000, the owner of /a/b, call twice as often.
		ctx: Context{Cred: fuzzCreds[in.pick(len(fuzzCreds)+2)%len(fuzzCreds)], Umask: fuzzUmasks[in.pick(len(fuzzUmasks))]},
		p:   in.resetPath(),
	}
	switch c.op {
	case 0, 1, 2, 3:
		c.mode = fuzzModes[in.pick(len(fuzzModes))]
		if c.op == 2 {
			c.data = make([]byte, in.pick(3))
			for i := range c.data {
				c.data[i] = in.next()
			}
		}
	case 4:
		c.q = in.resetPath()
	case 5:
		c.uid, c.gid = ids.NoUID, ids.NoGID
		if k := in.pick(3); k != 1 {
			c.uid = fuzzCreds[in.pick(len(fuzzCreds))].UID
		}
		if k := in.pick(3); k != 1 {
			c.gid = fuzzGroups[in.pick(len(fuzzGroups))]
		}
	case 6:
		c.uid, c.mode = fuzzCreds[in.pick(len(fuzzCreds))].UID, uint32(in.pick(8))
	case 7:
		c.gid, c.mode = fuzzGroups[in.pick(len(fuzzGroups))], uint32(in.pick(8))
	}
	return c
}

func (c vfsCall) apply(fs *FS) error {
	switch c.op {
	case 0:
		return fs.Mkdir(c.ctx, c.p, c.mode)
	case 1:
		return fs.MkdirAll(c.ctx, c.p, c.mode)
	case 2:
		return fs.WriteFile(c.ctx, c.p, c.data, c.mode)
	case 3:
		return fs.Chmod(c.ctx, c.p, c.mode)
	case 4:
		return fs.Symlink(c.ctx, c.q, c.p)
	case 5:
		return fs.Chown(c.ctx, c.p, c.uid, c.gid)
	case 6:
		return fs.SetfaclUser(c.ctx, c.p, c.uid, c.mode)
	default:
		return fs.SetfaclGroup(c.ctx, c.p, c.gid, c.mode)
	}
}

func (c vfsCall) String() string {
	return fmt.Sprintf("%s(uid %d, %q, %q, uid %d, gid %d, %o, %q)",
		vfsCallNames[c.op], c.ctx.Cred.UID, c.p, c.q, c.uid, c.gid, c.mode, c.data)
}

// FuzzResetEquivalence decodes bytes into a template tree, with ACLs
// on /a/b and /a/b/f, and cycles
// of mutator calls — Mkdir, MkdirAll, WriteFile, Chmod, Symlink,
// Chown, SetfaclUser, SetfaclGroup — on two mounts of
// the template and one plain mount, with MarkPristine or Reset on each
// mount between cycles. After every call and every Reset each mount's
// tree must equal its refMount's, and every call's error text its
// reference's. At the end the template's tree and the frozen empty
// root must be as they were built: no mount wrote through to either.
// The arena seeds make every mount reuse the inodes, children maps and
// data of its previous cycle after each of six Resets.
func FuzzResetEquivalence(f *testing.F) {
	for i := uint64(0); i < 32; i++ {
		f.Add(pathWalkSeed(i+1000, 480))
	}
	for _, seed := range arenaSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { resetEquivalence(t, data) })
}

// arenaSeeds are inputs whose every cycle writes on all three mounts —
// a MkdirAll two levels deep, a file with data in the sticky /t and a
// symlink beside it, all as root — and then Resets each mount, six
// cycles running, with one seed per data length.
func arenaSeeds() [][]byte {
	var seeds [][]byte
	for n := byte(0); n < 3; n++ {
		seed := []byte{0, 0, 0, 0} // two trees without extra nodes
		for cycle := 0; cycle < 6; cycle++ {
			seed = append(seed, 9) // nine calls
			for m := byte(0); m < 3; m++ {
				// mount, op, cred, umask, path (a resetPaths entry), ...
				seed = append(seed, m, 1, 0, 0, 1, 6, 0)     // MkdirAll /a/b/g/f 0755
				seed = append(seed, m, 2, 0, 0, 1, 9, 0, n)  // WriteFile /t/f 0755, n bytes
				seed = append(seed, "hi"[:n]...)             // the data
				seed = append(seed, m, 4, 0, 0, 1, 10, 1, 3) // Symlink /t/g -> /a/f
			}
			seed = append(seed, 0, 0, 0) // Reset all three
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestArenaSeedsReuseAcrossResets runs the arena seeds through the
// fuzz body and checks that each reuses arena inodes after at least
// three Resets of one mount.
func TestArenaSeedsReuseAcrossResets(t *testing.T) {
	for i, seed := range arenaSeeds() {
		if n := resetEquivalence(t, seed); n < 3 {
			t.Errorf("arena seed %d reused arena inodes after %d Resets of one mount, want at least 3", i, n)
		}
	}
}

// ownedInodes returns the inodes of fs's tree that fs may change in
// place: the ones its arena handed out since the tree last froze.
func ownedInodes(fs *FS) map[*inode]bool {
	out := make(map[*inode]bool)
	var walk func(n *inode)
	walk = func(n *inode) {
		if n.epoch == fs.epoch {
			out[n] = true
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
	return out
}

// resetEquivalence is FuzzResetEquivalence's body. It returns the most
// Resets of any one mount after which the mount's next cycle reused an
// inode its tree held before the Reset.
func resetEquivalence(t *testing.T, data []byte) int {
	in := fuzzInput(data)
	proto := fuzzTree(&in)
	// Frozen ACLs, which a mount must clone before it edits them.
	root := Context{Cred: ids.RootCred()}
	if err := proto.SetfaclGroup(root, "/a/b", 2000, 0o5); err != nil {
		t.Fatal(err)
	}
	if err := proto.SetfaclUser(root, "/a/b/f", 1001, 0o4); err != nil {
		t.Fatal(err)
	}
	tmpl := proto.AsTemplate()
	tmplWant := tmpl.root.deepCopy(0)
	mounts := []*FS{
		NewFromTemplate("a", proto.Policy, nil, tmpl),
		NewFromTemplate("b", proto.Policy, nil, tmpl),
		fuzzTree(&in),
	}
	refs := make([]*refMount, len(mounts))
	for i, fs := range mounts {
		refs[i] = newRefMount(fs)
	}
	// differs names the first mount whose tree is not its
	// reference's, "" if none.
	differs := func() string {
		for i, fs := range mounts {
			if !sameTree(fs.root, refs[i].fs.root) {
				return fs.Name
			}
		}
		return ""
	}
	// before holds each mount's owned inodes at its last Reset, nil
	// once a later cycle reused one or a mark froze them.
	before := make([]map[*inode]bool, len(mounts))
	reuses := make([]int, len(mounts))
	for cycle := 0; cycle < 8 && len(in) > 0; cycle++ {
		for k := in.pick(16); k > 0 && len(in) > 0; k-- {
			i := in.pick(len(mounts))
			c := in.call()
			err, want := c.apply(mounts[i]), c.apply(refs[i].fs)
			if errText(err) != errText(want) {
				t.Fatalf("cycle %d: %s on mount %s = %v; reference %v", cycle, c, mounts[i].Name, err, want)
			}
			if m := differs(); m != "" {
				t.Fatalf("cycle %d: after %s on mount %s, mount %s's tree differs from its reference's", cycle, c, mounts[i].Name, m)
			}
		}
		for i, fs := range mounts {
			if before[i] != nil {
				for n := range ownedInodes(fs) {
					if before[i][n] {
						reuses[i]++
						before[i] = nil
						break
					}
				}
			}
			switch in.pick(3) {
			case 0:
				before[i] = ownedInodes(fs)
				fs.Reset()
				refs[i].reset()
			case 1:
				before[i] = nil
				fs.MarkPristine()
				refs[i].mark()
			}
		}
		if m := differs(); m != "" {
			t.Fatalf("cycle %d: after the marks and resets, mount %s's tree differs from its reference's", cycle, m)
		}
	}
	if !sameTree(tmpl.root, tmplWant) {
		t.Fatal("a mount wrote through to the template's tree")
	}
	emptyWant := &inode{name: "/", typ: TypeDir, owner: ids.Root, group: ids.RootGroup, mode: 0o755, children: map[string]*inode{}}
	if !sameTree(emptyRoot, emptyWant) {
		t.Fatal("a mount wrote through to the frozen empty root")
	}
	return slices.Max(reuses)
}
