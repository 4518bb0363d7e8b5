// Package ids implements the identity substrate of the simulated HPC
// system: users, groups, and the user-private-group (UPG) scheme the
// paper's filesystem and network separation measures depend on.
//
// In the user-private-group scheme every user's default (primary)
// group is a private group containing only that user. Data sharing is
// then only possible through explicitly approved supplemental
// ("project") groups managed by data stewards (paper §IV-C).
package ids

import "fmt"

// UID identifies a user. UID 0 is root.
type UID int

// GID identifies a group. GID 0 is root's group.
type GID int

// PID identifies a process within a node's process table.
type PID int

// Root is the superuser UID.
const Root UID = 0

// RootGroup is the superuser's group.
const RootGroup GID = 0

// NoUID is returned by lookups that fail to resolve a user.
const NoUID UID = -1

// NoGID is returned by lookups that fail to resolve a group.
const NoGID GID = -1

// User describes an account on the system.
type User struct {
	UID      UID
	Name     string
	Primary  GID // the user-private group under the UPG scheme
	HomePath string
}

// Group describes a group. Under the UPG scheme a group is either a
// user-private group (Private == true, exactly one member) or an
// approved project group with one or more data stewards.
type Group struct {
	GID      GID
	Name     string
	Private  bool
	Stewards []UID // project leaders allowed to add/remove members
	members  map[UID]bool
	// changed marks a membership change since the registry's pristine
	// mark: Reset reinstalls a pristine copy of exactly these groups.
	changed bool
}

// Members returns the group's member UIDs in unspecified order.
func (g *Group) Members() []UID {
	out := make([]UID, 0, len(g.members))
	for u := range g.members {
		out = append(out, u)
	}
	return out
}

// Has reports whether uid is a member of the group.
func (g *Group) Has(uid UID) bool { return g.members[uid] }

// IsSteward reports whether uid is a data steward of the group.
func (g *Group) IsSteward(uid UID) bool {
	for _, s := range g.Stewards {
		if s == uid {
			return true
		}
	}
	return false
}

// Credential is the identity a process runs with: a user, an
// effective group, and the supplemental group set. The effective GID
// can be switched to any group the user belongs to via newgrp/sg
// (paper §IV-D) and is what the UBF consults on the listener side.
type Credential struct {
	UID    UID
	EGID   GID
	Groups []GID // supplemental groups, including the primary
}

// RootCred returns the superuser credential.
func RootCred() Credential {
	return Credential{UID: Root, EGID: RootGroup, Groups: []GID{RootGroup}}
}

// InGroup reports whether the credential includes gid either as the
// effective group or in the supplemental set.
func (c Credential) InGroup(gid GID) bool {
	if c.EGID == gid {
		return true
	}
	for _, g := range c.Groups {
		if g == gid {
			return true
		}
	}
	return false
}

// IsRoot reports whether the credential is the superuser.
func (c Credential) IsRoot() bool { return c.UID == Root }

// WithEGID returns a copy of the credential with the effective group
// switched to gid. It is the caller's responsibility to verify
// membership (see Registry.SwitchGroup for the checked variant).
func (c Credential) WithEGID(gid GID) Credential {
	nc := c
	nc.EGID = gid
	return nc
}

// Clone returns a deep copy of the credential.
func (c Credential) Clone() Credential {
	nc := c
	nc.Groups = append([]GID(nil), c.Groups...)
	return nc
}

func (c Credential) String() string {
	return fmt.Sprintf("uid=%d egid=%d groups=%v", c.UID, c.EGID, c.Groups)
}
