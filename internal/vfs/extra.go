package vfs

import "errors"

// This file adds the remaining filesystem semantics the paper's
// environment depends on: symlinks (with the fs.protected_symlinks
// hardening that pairs with sticky /tmp).

// Symlink-specific errors.
var (
	ErrSymlinkLoop      = errors.New("vfs: too many levels of symbolic links")
	ErrProtectedSymlink = errors.New("vfs: symlink following denied by protected_symlinks")
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

// WriteFileFollow writes through symlinks — the call a symlink-
// planting attack needs to subvert.
func (fs *FS) WriteFileFollow(ctx Context, path string, data []byte, mode uint32) error {
	real, err := fs.ResolveLinks(ctx, path)
	if err != nil {
		return err
	}
	return fs.WriteFile(ctx, real, data, mode)
}
