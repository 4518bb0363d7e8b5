package vfs

import (
	"sort"

	"repro/internal/ids"
)

// ACLEntryUser grants bits to a specific user.
type ACLEntryUser struct {
	UID  ids.UID
	Bits uint32 // rwx as octal digit
}

// ACLEntryGroup grants bits to a specific group.
type ACLEntryGroup struct {
	GID  ids.GID
	Bits uint32
}

// ACL is a POSIX.1e-style access control list attached to an inode.
type ACL struct {
	Users  []ACLEntryUser
	Groups []ACLEntryGroup
}

// Clone deep-copies the ACL.
func (a *ACL) Clone() *ACL {
	if a == nil {
		return nil
	}
	return &ACL{
		Users:  append([]ACLEntryUser(nil), a.Users...),
		Groups: append([]ACLEntryGroup(nil), a.Groups...),
	}
}

// userEntry returns the named-user bits for uid, if present.
func (a *ACL) userEntry(uid ids.UID) (uint32, bool) {
	for _, e := range a.Users {
		if e.UID == uid {
			return e.Bits, true
		}
	}
	return 0, false
}

// SetfaclGroup adds or replaces a named-group entry on path. Under
// the paper's restriction (Policy.ACLRestrict), the caller must be a
// member of the group being granted — "a user cannot grant permission
// to a group unless they are a member of said group" (§IV-C). Only
// the file owner or root may modify the ACL (POSIX).
func (fs *FS) SetfaclGroup(ctx Context, path string, gid ids.GID, bits uint32) error {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	if !ctx.Cred.IsRoot() && ctx.Cred.UID != n.owner {
		return &PathError{Op: "setfacl", Path: path, Err: ErrPermission}
	}
	if fs.Policy.ACLRestrict && !ctx.Cred.IsRoot() {
		if !ctx.Cred.InGroup(gid) {
			return &ACLError{Caller: ctx.Cred.UID, GID: gid}
		}
		if fs.reg != nil {
			if g, err := fs.reg.Group(gid); err == nil && g.Private && !g.Has(ctx.Cred.UID) {
				return &ACLError{Caller: ctx.Cred.UID, GID: gid, Private: true}
			}
		}
	}
	// smask applies to ACL grants too: an unprivileged grant cannot
	// exceed what the mask allows for the group class... the paper's
	// patch masks world bits; named entries are group-class so they
	// survive, but we still clamp to rwx.
	bits &= 0o7
	n = fs.own(path)
	if n.acl == nil {
		n.acl = &ACL{}
	}
	for i := range n.acl.Groups {
		if n.acl.Groups[i].GID == gid {
			n.acl.Groups[i].Bits = bits
			return nil
		}
	}
	n.acl.Groups = append(n.acl.Groups, ACLEntryGroup{GID: gid, Bits: bits})
	sort.Slice(n.acl.Groups, func(i, j int) bool { return n.acl.Groups[i].GID < n.acl.Groups[j].GID })
	return nil
}

// SetfaclUser adds or replaces a named-user entry. Under the paper's
// restriction, the caller may only grant to users they share a
// non-private (project) group with — keeping all sharing inside
// approved groups. Requires the identity registry.
func (fs *FS) SetfaclUser(ctx Context, path string, uid ids.UID, bits uint32) error {
	n, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	if !ctx.Cred.IsRoot() && ctx.Cred.UID != n.owner {
		return &PathError{Op: "setfacl", Path: path, Err: ErrPermission}
	}
	if fs.Policy.ACLRestrict && !ctx.Cred.IsRoot() && uid != ctx.Cred.UID {
		if fs.reg == nil || !fs.reg.SharedGroup(ctx.Cred.UID, uid) {
			return &ACLError{Caller: ctx.Cred.UID, UID: uid, User: true}
		}
	}
	bits &= 0o7
	n = fs.own(path)
	if n.acl == nil {
		n.acl = &ACL{}
	}
	for i := range n.acl.Users {
		if n.acl.Users[i].UID == uid {
			n.acl.Users[i].Bits = bits
			return nil
		}
	}
	n.acl.Users = append(n.acl.Users, ACLEntryUser{UID: uid, Bits: bits})
	sort.Slice(n.acl.Users, func(i, j int) bool { return n.acl.Users[i].UID < n.acl.Users[j].UID })
	return nil
}
