package vfs

import (
	"fmt"
	"path"
	"strings"

	"repro/internal/ids"
)

// can evaluates whether cred holds the wanted rwx bits (want is an
// octal digit: r=4 w=2 x=1, combinable) on inode n. Evaluation order
// follows POSIX + POSIX.1e ACLs: owner class, then named-user ACL
// entries, then owning group / named-group ACL entries, then other.
// Root bypasses everything.
func (fs *FS) can(cred ids.Credential, n *inode, want uint32) bool {
	if cred.IsRoot() {
		return true
	}
	// Owner class.
	if cred.UID == n.owner {
		return (n.mode>>6)&want == want
	}
	// Named user ACL entries.
	if n.acl != nil {
		if bits, ok := n.acl.userEntry(cred.UID); ok {
			return bits&want == want
		}
	}
	// Group class: owning group or any named-group entry the caller
	// belongs to. POSIX.1e grants access if any matching group entry
	// allows it.
	groupMatched := false
	if cred.InGroup(n.group) {
		groupMatched = true
		if (n.mode>>3)&want == want {
			return true
		}
	}
	if n.acl != nil {
		for _, e := range n.acl.Groups {
			if cred.InGroup(e.GID) {
				groupMatched = true
				if e.Bits&want == want {
					return true
				}
			}
		}
	}
	if groupMatched {
		return false
	}
	// Other class.
	return n.mode&want == want
}

// Chmod changes permission bits. POSIX rule: only the owner or root.
// The paper's smask patch makes the mask *enforced even on chmod*
// (§IV-C): an unprivileged chmod that tries to set world bits has
// those bits silently stripped, exactly like the kernel patch.
func (fs *FS) Chmod(ctx Context, path string, mode uint32) error {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	if !ctx.Cred.IsRoot() && ctx.Cred.UID != n.owner {
		return &PathError{Op: "chmod", Path: path, Err: ErrPermission}
	}
	eff := mode & permMask
	// setgid preservation rule: non-root callers not in the file's
	// group lose setgid on chmod (standard POSIX hardening).
	if !ctx.Cred.IsRoot() && !ctx.Cred.InGroup(n.group) {
		eff &^= ModeSetgid
	}
	fs.own(path).mode = fs.applySmask(ctx, eff)
	return nil
}

// Chown changes owner and/or group. Owner changes are root-only
// (POSIX). Group changes ("chgrp") are allowed to the file owner but
// only to a group they are a member of — the rule the paper leans on
// to keep sharing inside approved project groups. Pass ids.NoUID /
// ids.NoGID to leave a field unchanged.
//
// It owns the inode just before each field it writes, after that
// field's checks, so a refused change copies nothing.
func (fs *FS) Chown(ctx Context, path string, owner ids.UID, group ids.GID) error {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	if owner != ids.NoUID && owner != n.owner {
		if !ctx.Cred.IsRoot() {
			return &PathError{Op: "chown", Path: path, Err: ErrPermission}
		}
		n = fs.own(path)
		n.owner = owner
	}
	if group != ids.NoGID && group != n.group {
		if !ctx.Cred.IsRoot() {
			if ctx.Cred.UID != n.owner {
				return fmt.Errorf("%w: chgrp %s: not owner", ErrPermission, path)
			}
			if !ctx.Cred.InGroup(group) {
				return fmt.Errorf("%w: chgrp %s: uid %d not in gid %d", ErrPermission, path, ctx.Cred.UID, group)
			}
		}
		fs.own(path).group = group
	}
	return nil
}

// CreateHome builds a user's home directory the way the paper
// mandates (§IV-C): owned by root, group-owned by the user-private
// group, no world bits, and — because root owns it — the user cannot
// chmod their own top-level home open.
func (fs *FS) CreateHome(u *ids.User) error {
	rootCtx := Context{Cred: ids.RootCred()}
	if err := fs.mkdirAll(rootCtx, parentOf(u.HomePath), 0o755); err != nil {
		return err
	}
	if err := fs.Mkdir(rootCtx, u.HomePath, 0o770); err != nil {
		return err
	}
	return fs.Chown(rootCtx, u.HomePath, ids.Root, u.Primary)
}

// CreateProjectDir builds an approved project group's shared area:
// root-owned, group-owned by the project group, setgid so new files
// inherit the group, and no world bits.
func (fs *FS) CreateProjectDir(path string, g *ids.Group) error {
	rootCtx := Context{Cred: ids.RootCred()}
	if err := fs.MkdirAll(rootCtx, parentOf(path), 0o755); err != nil {
		return err
	}
	if err := fs.Mkdir(rootCtx, path, 0o2770); err != nil {
		return err
	}
	return fs.Chown(rootCtx, path, ids.Root, g.GID)
}

// CreateTmp builds a world-writable sticky directory (mode 1777),
// the /tmp and /dev/shm layout whose *name* leakage remains a
// residual channel in the paper's results (§V).
func (fs *FS) CreateTmp(path string) error {
	rootCtx := Context{Cred: ids.RootCred()}
	if err := fs.MkdirAll(rootCtx, parentOf(path), 0o755); err != nil {
		return err
	}
	err := fs.Mkdir(rootCtx, path, 0o1777)
	if err != nil {
		return err
	}
	return nil
}

// parentOf returns the clean path of the directory that holds p: "/"
// for a top-level or a relative path.
func parentOf(p string) string {
	if !strings.HasPrefix(p, "/") {
		return "/"
	}
	c := path.Clean(p)
	if k := strings.LastIndexByte(c, '/'); k > 0 {
		return c[:k]
	}
	return "/"
}
