package vfs

import (
	"errors"
	"fmt"
)

// This file adds the remaining filesystem semantics the paper's
// environment depends on: symlinks (with the fs.protected_symlinks
// hardening that pairs with sticky /tmp) and rename.

// Symlink-specific errors.
var (
	ErrSymlinkLoop      = errors.New("vfs: too many levels of symbolic links")
	ErrProtectedSymlink = errors.New("vfs: symlink following denied by protected_symlinks")
	ErrNotFile          = errors.New("vfs: not a regular file")
)

// TypeSymlink extends FileType for symbolic links.
const TypeSymlink FileType = 3

const maxSymlinkHops = 40

// Symlink creates a symbolic link at linkPath pointing to target
// (target need not exist — dangling links are legal).
func (fs *FS) Symlink(ctx Context, target, linkPath string) error {
	dir, name, err := fs.walkParent(ctx, linkPath)
	if err != nil {
		return err
	}
	if _, dup := dir.children[name]; dup {
		return &PathError{Path: linkPath, Err: ErrExist}
	}
	if !fs.can(ctx.Cred, dir, 3) {
		return &PathError{Op: "symlink", Path: linkPath, Err: ErrPermission}
	}
	fs.own(parentOf(linkPath)).children[name] = fs.node(&inode{
		name: name, typ: TypeSymlink,
		owner: ctx.Cred.UID, group: ctx.Cred.EGID,
		mode:   0o777, // symlink modes are ignored, like Linux
		target: target,
	})
	return nil
}

// Readlink returns the link target.
func (fs *FS) Readlink(ctx Context, path string) (string, error) {
	n, err := fs.walkNoFollow(ctx, path)
	if err != nil {
		return "", err
	}
	if n.typ != TypeSymlink {
		return "", &PathError{Path: path, Err: ErrInvalid}
	}
	return n.target, nil
}

// walkNoFollow resolves the path like walk but does not follow a
// symlink in the final component (lstat semantics).
func (fs *FS) walkNoFollow(ctx Context, path string) (*inode, error) {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return nil, err
	}
	n, ok := dir.children[name]
	if !ok {
		return nil, &PathError{Path: path, Err: ErrNotExist}
	}
	return n, nil
}

// Lstat is Stat without following a final symlink.
func (fs *FS) Lstat(ctx Context, path string) (*FileInfo, error) {
	n, err := fs.walkNoFollow(ctx, path)
	if err != nil {
		return nil, err
	}
	return fs.infoOf(n, path), nil
}

// ResolveLinks follows symlinks at the final component until a
// non-link inode (or error). It enforces the protected_symlinks rule
// when the mount policy enables it: inside a sticky world-writable
// directory, a symlink is followed only when its owner matches either
// the follower or the directory owner — the kernel hardening that
// kills /tmp symlink-planting attacks.
func (fs *FS) ResolveLinks(ctx Context, path string) (string, error) {
	return fs.resolveLinks(ctx, path, 0)
}

func (fs *FS) resolveLinks(ctx Context, path string, hops int) (string, error) {
	if hops > maxSymlinkHops {
		return "", &PathError{Path: path, Err: ErrSymlinkLoop}
	}
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return "", err
	}
	n, ok := dir.children[name]
	if !ok {
		return "", &PathError{Path: path, Err: ErrNotExist}
	}
	if n.typ != TypeSymlink {
		return path, nil
	}
	if fs.Policy.ProtectedSymlinks && !ctx.Cred.IsRoot() {
		sticky := dir.mode&ModeSticky != 0
		worldWritable := dir.mode&0o002 != 0
		if sticky && worldWritable && n.owner != ctx.Cred.UID && n.owner != dir.owner {
			return "", &SymlinkError{Path: path, Owner: n.owner}
		}
	}
	return fs.resolveLinks(ctx, n.target, hops+1)
}

// ReadFileFollow reads through symlinks (ReadFile itself is
// strict-inode; most callers in this codebase address real files).
func (fs *FS) ReadFileFollow(ctx Context, path string) ([]byte, error) {
	real, err := fs.ResolveLinks(ctx, path)
	if err != nil {
		return nil, err
	}
	return fs.ReadFile(ctx, real)
}

// WriteFileFollow writes through symlinks — the call a symlink-
// planting attack needs to subvert.
func (fs *FS) WriteFileFollow(ctx Context, path string, data []byte, mode uint32) error {
	real, err := fs.ResolveLinks(ctx, path)
	if err != nil {
		return err
	}
	return fs.WriteFile(ctx, real, data, mode)
}

// Rename moves oldPath to newPath (within this mount). POSIX rules:
// w+x on both parent directories, sticky-directory deletion rules on
// the source, destination must not be an existing non-empty dir, and a
// directory cannot move into its own subtree (ErrInvalid).
func (fs *FS) Rename(ctx Context, oldPath, newPath string) error {
	oldDir, oldName, err := fs.walkParent(ctx, oldPath)
	if err != nil {
		return err
	}
	n, ok := oldDir.children[oldName]
	if !ok {
		return &PathError{Path: oldPath, Err: ErrNotExist}
	}
	newDir, newName, err := fs.walkParent(ctx, newPath)
	if err != nil {
		return err
	}
	if !fs.can(ctx.Cred, oldDir, 3) || !fs.can(ctx.Cred, newDir, 3) {
		return fmt.Errorf("%w: rename %s -> %s", ErrPermission, oldPath, newPath)
	}
	if contains(n, newDir) {
		return fmt.Errorf("%w: rename %s -> %s", ErrInvalid, oldPath, newPath)
	}
	if oldDir.mode&ModeSticky != 0 && !ctx.Cred.IsRoot() &&
		ctx.Cred.UID != n.owner && ctx.Cred.UID != oldDir.owner {
		return &PathError{Op: "sticky rename", Path: oldPath, Err: ErrPermission}
	}
	if existing, dup := newDir.children[newName]; dup {
		if existing.typ == TypeDir && len(existing.children) > 0 {
			return &PathError{Path: newPath, Err: ErrNotEmpty}
		}
		if newDir.mode&ModeSticky != 0 && !ctx.Cred.IsRoot() &&
			ctx.Cred.UID != existing.owner && ctx.Cred.UID != newDir.owner {
			return &PathError{Op: "sticky overwrite", Path: newPath, Err: ErrPermission}
		}
	}
	// Own both parents, then the moved inode, whose name changes: the
	// second own may have copied it if the new parent lies below it.
	oldDir, newDir = fs.own(parentOf(oldPath)), fs.own(parentOf(newPath))
	n = fs.owned(oldDir.children[oldName])
	delete(oldDir.children, oldName)
	n.name = newName
	newDir.children[newName] = n
	return nil
}

// contains reports whether d is n or lies in n's subtree.
func contains(n, d *inode) bool {
	if n == d {
		return true
	}
	for _, c := range n.children {
		if c.typ == TypeDir && contains(c, d) {
			return true
		}
	}
	return false
}
