// Package vfs implements the filesystem substrate of the simulated
// HPC system: an in-memory POSIX-style filesystem with full
// owner/group/other permission evaluation, umask, POSIX-style ACLs,
// setgid/sticky directories — plus the paper's additions (§IV-C):
//
//   - the smask ("security mask") kernel patch: an immutable, enforced
//     umask that blocks world permission bits for unprivileged users,
//     applied at create time AND at chmod time;
//   - ACL restriction: a user may only grant a group ACL to a group
//     they are a member of, and user ACLs only to users they share a
//     supplemental group with;
//   - root-owned, private-group-owned home directories;
//   - the smask_relax tool for whitelisted support staff.
//
// One FS value is one mount: the cluster wires a shared (Lustre-like)
// FS at /home and /scratch on every node, and per-node FSes at /tmp
// and /dev/shm (see Namespace).
package vfs

import (
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/slab"
)

// Mode bits beyond rwxrwxrwx.
const (
	ModeSetgid uint32 = 0o2000
	ModeSticky uint32 = 0o1000
	permMask   uint32 = 0o7777
)

// FileType distinguishes inode kinds.
type FileType int

// Inode kinds.
const (
	TypeFile FileType = iota
	TypeDir
	TypeSocket // unix domain socket endpoints (abstract ns handled by netsim)
)

func (t FileType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSocket:
		return "socket"
	case TypeSymlink:
		return "symlink"
	default:
		return "?"
	}
}

// VFS errors (errno-like).
var (
	ErrNotExist   = errors.New("vfs: no such file or directory")
	ErrExist      = errors.New("vfs: file exists")
	ErrPermission = errors.New("vfs: permission denied")
	ErrNotDir     = errors.New("vfs: not a directory")
	ErrIsDir      = errors.New("vfs: is a directory")
	ErrInvalid    = errors.New("vfs: invalid argument")
	ErrACLDenied  = errors.New("vfs: acl grant rejected by group-membership restriction")
)

// inode is the internal tree node.
//
// Trees are persistent: an inode is changed in place only by the
// mount whose write epoch it carries, and a mount copies any other
// inode before it writes (FS.own). A frozen tree — a pristine mark, a
// template, the empty root — is therefore never written again, and
// any number of live trees may share its inodes.
type inode struct {
	name     string
	typ      FileType
	owner    ids.UID
	group    ids.GID
	mode     uint32 // low 12 bits
	epoch    uint64 // the write epoch that may change this inode in place
	data     []byte // replaced, never written in place
	target   string // a symlink's target, as given
	children map[string]*inode
	acl      *ACL
}

// Policy configures per-mount enforcement.
type Policy struct {
	// SmaskEnabled turns on the smask kernel patch for this mount.
	SmaskEnabled bool
	// Smask is the enforced mask (paper deploys 007: no world bits).
	Smask uint32
	// ACLRestrict enables the paper's member-group ACL restriction.
	ACLRestrict bool
	// ProtectedSymlinks enables the fs.protected_symlinks hardening:
	// in sticky world-writable directories, symlinks are followed
	// only when owned by the follower or the directory owner.
	ProtectedSymlinks bool
}

// DefaultSmask is the paper's production setting: block all world
// bits, like an immutable umask 007.
const DefaultSmask uint32 = 0o007

// Context carries the identity state of the calling process: its
// credential, its umask, and its session smask override (set by
// smask_relax). A zero SmaskOverride means "use the mount policy".
type Context struct {
	Cred          ids.Credential
	Umask         uint32
	SmaskOverride uint32 // e.g. 0o002 inside an smask_relax session
	HasOverride   bool
}

// Ctx is a convenience constructor with the conventional umask 022.
func Ctx(cred ids.Credential) Context {
	return Context{Cred: cred, Umask: 0o022}
}

// FS is one mount. It is not safe for concurrent use; the cluster's
// owner calls it (DESIGN.md §7, "One owner per cluster"). Frozen trees
// (a mark, a template, the empty root) are never written, so mounts of
// different clusters may share them across goroutines.
type FS struct {
	Name   string
	Policy Policy
	reset  bool // Reset ran at least once
	reg    *ids.Registry
	root   *inode
	// pristine is the frozen root Reset returns to: the tree at
	// MarkPristine, or the post-New (or template) tree before any mark.
	pristine *inode
	// epoch marks the inodes this mount may change in place: the ones
	// it created or copied since the tree was last frozen.
	epoch uint64
	// arena holds the inodes this mount creates or copies and the data
	// and link targets it stores. The first write after a Reset
	// creates it: a mount that is never Reset keeps none of what it
	// drops, and an untouched per-node mount of a 10k-node cluster
	// carries a nil pointer. Until then, and until the arena's first
	// Rewind (slab.Alloc), inodes and data come from the heap.
	arena *arena
}

// arena is a mount's recycled storage. Freezing the tree (MarkPristine,
// AsTemplate) marks both slabs, so the frozen inodes and data are never
// handed out again; Reset rewinds both to the mark, so a pooled trial's
// writes reuse the previous trial's inodes, children maps and bytes.
type arena struct {
	nodes slab.Slab[arenaNode]
	bytes slab.Slab[byte]
}

// arenaNode is one inode of a mount's arena, with the children map the
// slot keeps across Reset: a directory placed in the slot gets it,
// emptied, so a reused slot's directory allocates no map.
type arenaNode struct {
	inode
	kids map[string]*inode
}

// Template is an immutable pristine tree many mounts can share: every
// untouched per-node mount of an XXL cluster is one pointer to it
// instead of a full copy. Build one with (*FS).AsTemplate.
type Template struct {
	root *inode
}

// epochs hands out write epochs. It is package-wide because mounts of
// one template share its inodes: no two mounts may hold one epoch.
var epochs atomic.Uint64

// emptyRoot is the frozen root of every New mount. Its epoch is 0,
// which no mount holds.
var emptyRoot = &inode{
	name: "/", typ: TypeDir,
	owner: ids.Root, group: ids.RootGroup, mode: 0o755,
	children: make(map[string]*inode),
}

// MarkPristine records the mount's current tree as the target of
// Reset and freezes it. The cluster assembly calls it once its layout
// (/home, /scratch, /proj, the per-node tmp dirs) is in place.
func (fs *FS) MarkPristine() {
	fs.pristine = fs.root
	fs.freeze()
}

// freeze starts a new write epoch and marks the arenas, so nothing the
// tree holds now is written or handed out again.
func (fs *FS) freeze() {
	fs.epoch = epochs.Add(1)
	if fs.arena != nil {
		fs.arena.nodes.Mark()
		fs.arena.bytes.Mark()
	}
}

// Reset restores the mount to the MarkPristine state (or to the
// post-New tree if no mark was taken), rolling back every mutation
// since: files, directories, symlinks, mode/owner changes and ACLs.
// The pristine tree is frozen, so this is one pointer swap and a
// rewind of the arenas however much the trial wrote. Inodes and data
// the trial created are reused by the next trial's writes.
func (fs *FS) Reset() {
	fs.root = fs.pristine
	fs.reset = true
	if fs.arena != nil {
		fs.arena.nodes.Rewind()
		fs.arena.bytes.Rewind()
	}
}

// New creates an empty filesystem whose root is owned by root with
// mode 0755. reg is consulted for ACL membership checks; it may be
// nil if Policy.ACLRestrict is false.
func New(name string, policy Policy, reg *ids.Registry) *FS {
	return &FS{Name: name, Policy: policy, reg: reg, root: emptyRoot, pristine: emptyRoot, epoch: epochs.Add(1)}
}

// AsTemplate freezes the mount's current tree as an immutable
// template for NewFromTemplate; the mount copies what it writes next.
// The cluster assembly builds one prototype local mount, freezes it,
// and stamps out every node's mount from the template in O(1) each.
func (fs *FS) AsTemplate() *Template {
	fs.freeze()
	return &Template{root: fs.root}
}

// NewFromTemplate creates a mount whose tree is the shared template.
// A write copies only the inodes on its path; Reset returns to the
// template, so an untouched templated mount costs O(1) to build, hold
// and reset.
func NewFromTemplate(name string, policy Policy, reg *ids.Registry, t *Template) *FS {
	return &FS{Name: name, Policy: policy, reg: reg, root: t.root, pristine: t.root, epoch: epochs.Add(1)}
}

// owned returns n if this mount may change it in place, else a copy
// it may. The copy clones the children map and the ACL, which writers
// edit in place, and shares the data, which they replace.
func (fs *FS) owned(n *inode) *inode {
	if n.epoch == fs.epoch {
		return n
	}
	c := fs.node(n)
	c.acl = n.acl.Clone()
	return c
}

// node returns an inode of this mount's epoch holding v's fields, from
// the arena once there is one. A directory gets the slot's kept
// children map, emptied and filled with v's children; any other inode
// has none.
func (fs *FS) node(v *inode) *inode {
	var a *arenaNode
	if ar := fs.store(); ar != nil {
		a = &ar.nodes.Alloc(1)[0]
	} else {
		a = new(arenaNode)
	}
	kids := a.kids
	a.inode = *v
	a.epoch = fs.epoch
	if v.typ == TypeDir {
		if kids == nil {
			kids = make(map[string]*inode, len(v.children))
		} else {
			clear(kids)
		}
		maps.Copy(kids, v.children)
		a.children, a.kids = kids, kids
	}
	return &a.inode
}

// store returns the mount's arena, creating it on the first write
// after a Reset, or nil before any Reset.
func (fs *FS) store() *arena {
	if fs.arena == nil && fs.reset {
		fs.arena = new(arena)
	}
	return fs.arena
}

// copyData returns a copy of data, nil when it is empty, from the
// arena once there is one. Data is replaced, never written in place,
// so a copy is only rewritten after Reset.
func (fs *FS) copyData(data []byte) []byte {
	if ar := fs.store(); ar != nil {
		return ar.bytes.Clone(data)
	}
	return append([]byte(nil), data...)
}

// own makes every inode on p, a path the caller has walked, one this
// mount may change in place, and returns the inode p names. It copies
// only the inodes another epoch owns, so a second write on a path
// copies nothing. Callers run every check first: a refused write
// copies nothing either.
func (fs *FS) own(p string) *inode {
	c := path.Clean(p)
	fs.root = fs.owned(fs.root)
	cur := fs.root
	for s := 1; s < len(c); {
		e := compEnd(c, s)
		child := cur.children[c[s:e]]
		if next := fs.owned(child); next != child {
			cur.children[c[s:e]] = next
			child = next
		}
		cur = child
		s = e + 1
	}
	return cur
}

// cleanAbs lexically normalises an absolute path: "//" and "."
// collapse, ".." drops the component before it and stays put at the
// root. An already-clean path comes back unchanged, with no copy.
func cleanAbs(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: path %q not absolute", ErrInvalid, p)
	}
	return path.Clean(p), nil
}

// dirPath names the prefix c[:k] of the clean path c, "/" for the
// root.
func dirPath(c string, k int) string {
	if k == 0 {
		return "/"
	}
	return c[:k]
}

// compEnd returns the end of the component of c that starts at s.
func compEnd(c string, s int) int {
	if e := strings.IndexByte(c[s:], '/'); e >= 0 {
		return s + e
	}
	return len(c)
}

// walk resolves path to an inode, enforcing execute (search)
// permission on every directory along the way.
func (fs *FS) walk(ctx Context, path string) (*inode, error) {
	c, err := cleanAbs(path)
	if err != nil {
		return nil, err
	}
	return fs.resolve(ctx, c, path)
}

// resolve walks the clean absolute path c by indexing into it: each
// component is looked up as a substring of c, which neither splits
// nor copies the path. A missing component reports ErrNotExist with
// orig, the path the caller named. The other errors name a prefix of
// c: ErrNotDir without its leading slash (the root is always a
// directory, so that prefix is never empty), a failed search with it.
func (fs *FS) resolve(ctx Context, c, orig string) (*inode, error) {
	cur := fs.root
	for s := 1; s < len(c); {
		e := compEnd(c, s)
		if cur.typ != TypeDir {
			return nil, &PathError{Path: c[1 : s-1], Err: ErrNotDir}
		}
		if !fs.can(ctx.Cred, cur, 1) { // x on the directory
			return nil, &PathError{Op: "search", Path: dirPath(c, s-1), Err: ErrPermission}
		}
		next, ok := cur.children[c[s:e]]
		if !ok {
			return nil, &PathError{Path: orig, Err: ErrNotExist}
		}
		cur = next
		s = e + 1
	}
	return cur, nil
}

// walkParent resolves the parent directory of path and returns it
// plus the final component name.
func (fs *FS) walkParent(ctx Context, path string) (*inode, string, error) {
	c, err := cleanAbs(path)
	if err != nil {
		return nil, "", err
	}
	if c == "/" {
		return nil, "", fmt.Errorf("%w: cannot operate on /", ErrInvalid)
	}
	k := strings.LastIndexByte(c, '/')
	parent := dirPath(c, k)
	dir, err := fs.resolve(ctx, parent, parent)
	if err != nil {
		return nil, "", err
	}
	if dir.typ != TypeDir {
		return nil, "", &PathError{Op: "parent of", Path: path, Err: ErrNotDir}
	}
	return dir, c[k+1:], nil
}

// effectiveCreateMode applies umask and (if enabled) smask to a
// requested creation mode.
func (fs *FS) effectiveCreateMode(ctx Context, req uint32) uint32 {
	m := req & permMask &^ ctx.Umask
	return fs.applySmask(ctx, m)
}

// applySmask enforces the security mask for unprivileged users: world
// bits named in the smask are stripped, immutably (paper §IV-C). An
// smask_relax session substitutes its relaxed mask.
func (fs *FS) applySmask(ctx Context, m uint32) uint32 {
	if !fs.Policy.SmaskEnabled || ctx.Cred.IsRoot() {
		return m
	}
	mask := fs.Policy.Smask
	if ctx.HasOverride {
		mask = ctx.SmaskOverride
	}
	return m &^ mask
}

// Mkdir creates a directory. New directories inherit the parent's
// group when the parent has setgid (the project-directory idiom).
func (fs *FS) Mkdir(ctx Context, path string, mode uint32) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	if _, dup := dir.children[name]; dup {
		return &PathError{Path: path, Err: ErrExist}
	}
	if !fs.can(ctx.Cred, dir, 3) { // w+x on parent
		return &PathError{Op: "mkdir", Path: path, Err: ErrPermission}
	}
	fs.mkdirIn(ctx, fs.own(parentOf(path)), name, mode)
	return nil
}

// mkdirIn creates directory name in dir, an inode this mount owns
// whose w+x the caller has checked, and returns it.
func (fs *FS) mkdirIn(ctx Context, dir *inode, name string, mode uint32) *inode {
	group := ctx.Cred.EGID
	eff := fs.effectiveCreateMode(ctx, mode)
	if dir.mode&ModeSetgid != 0 {
		group = dir.group
		eff |= ModeSetgid // setgid propagates down project trees
	}
	n := fs.node(&inode{name: name, typ: TypeDir, owner: ctx.Cred.UID, group: group, mode: eff})
	dir.children[name] = n
	return n
}

// MkdirAll creates path and any missing parents with the given mode.
func (fs *FS) MkdirAll(ctx Context, path string, mode uint32) error {
	c, err := cleanAbs(path)
	if err != nil {
		return err
	}
	return fs.mkdirAll(ctx, c, mode)
}

// mkdirAll creates the clean absolute path c and its missing
// parents in one walk down c. Each component is checked exactly as
// Mkdir of its prefix would check it: the parent's parent must grant
// search (the ancestors above it passed on earlier components), the
// parent must be a directory, and an absent component needs w+x on
// the parent. A component that exists, directory or not, is stepped
// into without building an ErrExist; a file there fails the next
// component with ErrNotDir. Only a component it creates makes it own
// the path to its parent, so an existing path copies nothing.
func (fs *FS) mkdirAll(ctx Context, c string, mode uint32) error {
	if c == "/" {
		return nil
	}
	// dir is the prefix c[:dirEnd]; up is its parent at c[:upEnd],
	// nil while dir is the root.
	var up *inode
	upEnd := 0
	dir, dirEnd := fs.root, 0
	for s := 1; s < len(c); {
		e := compEnd(c, s)
		if up != nil && !fs.can(ctx.Cred, up, 1) {
			return &PathError{Op: "search", Path: dirPath(c, upEnd), Err: ErrPermission}
		}
		if dir.typ != TypeDir {
			return &PathError{Op: "parent of", Path: c[:e], Err: ErrNotDir}
		}
		next, ok := dir.children[c[s:e]]
		if !ok {
			if !fs.can(ctx.Cred, dir, 3) {
				return &PathError{Op: "mkdir", Path: c[:e], Err: ErrPermission}
			}
			dir = fs.own(dirPath(c, dirEnd))
			next = fs.mkdirIn(ctx, dir, c[s:e], mode)
		}
		up, upEnd = dir, dirEnd
		dir, dirEnd = next, e
		s = e + 1
	}
	return nil
}

// WriteFile creates or truncates a file with the given data. Creation
// applies umask+smask; overwrite requires write permission on the
// existing file.
func (fs *FS) WriteFile(ctx Context, path string, data []byte, mode uint32) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	if existing, ok := dir.children[name]; ok {
		if existing.typ == TypeDir {
			return &PathError{Path: path, Err: ErrIsDir}
		}
		if !fs.can(ctx.Cred, existing, 2) {
			return &PathError{Op: "write", Path: path, Err: ErrPermission}
		}
		fs.own(path).data = fs.copyData(data)
		return nil
	}
	if !fs.can(ctx.Cred, dir, 3) {
		return &PathError{Op: "create", Path: path, Err: ErrPermission}
	}
	group := ctx.Cred.EGID
	if dir.mode&ModeSetgid != 0 {
		group = dir.group
	}
	fs.own(parentOf(path)).children[name] = fs.node(&inode{
		name: name, typ: TypeFile,
		owner: ctx.Cred.UID, group: group,
		mode: fs.effectiveCreateMode(ctx, mode),
		data: fs.copyData(data),
	})
	return nil
}

// ReadFile returns the file's contents if ctx can read it.
func (fs *FS) ReadFile(ctx Context, path string) ([]byte, error) {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return nil, err
	}
	if n.typ == TypeDir {
		return nil, &PathError{Path: path, Err: ErrIsDir}
	}
	if !fs.can(ctx.Cred, n, 4) {
		return nil, &PathError{Op: "read", Path: path, Err: ErrPermission}
	}
	return append([]byte(nil), n.data...), nil
}

// ReadDir lists entry names (requires read on the directory). The
// crucial residual channel: in a world-writable /tmp a stranger can
// still *list names* even when contents are protected (paper §V).
func (fs *FS) ReadDir(ctx Context, path string) ([]string, error) {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeDir {
		return nil, &PathError{Path: path, Err: ErrNotDir}
	}
	if !fs.can(ctx.Cred, n, 4) {
		return nil, &PathError{Op: "readdir", Path: path, Err: ErrPermission}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
