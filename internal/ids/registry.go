package ids

import (
	"errors"
	"fmt"
	"sort"
)

// Registry is the cluster-wide identity database: the equivalent of
// LDAP/passwd/group on the real system. It enforces the
// user-private-group scheme: creating a user always creates a private
// group for them, and private groups can never gain a second member.
//
// At fleet scale the registry is lazy: AddUser (and the bulk Register
// path) record only a compact descriptor — the login name and the
// UID/private-GID pair — and the *User value, the user-private *Group
// and the home-path string materialize on first access through the
// ordinary accessors. The user-private-group scheme is what makes
// this sound: a private group's name, membership and immutability are
// fully determined by its owner's descriptor, so nothing about it
// needs to exist until somebody looks at it.
//
// A registry holds at most 2^24-2 users besides root; Register refuses
// the next with ErrRegistryFull. It is not safe for concurrent use;
// the cluster's owner calls it (DESIGN.md §7, "One owner per
// cluster"). Most readers materialize cached views, so they write.
//
// Reset leaves the name index untouched: a pooled trial re-registers
// the previous trial's names in order, and each replayed registration
// skips the hash and the probe (see nameIndex). While the group
// namespace holds as many names as it did at the mark (root alone
// without one), a replay also skips the "root" and group-name checks.
// Every kept descriptor passed them under the current mark, when
// gByName already held every marked name, because marked groups are
// never removed; and Reset removes exactly the groups created since
// the mark, so an equal size means gByName holds exactly the marked
// names, none of which a kept descriptor carries. MarkPristine
// forgets the kept descriptors, so none registered under an earlier
// mark replays under a later one. A project group created since the
// mark puts every replay back on the checked path.
type Registry struct {
	nextUID UID
	nextGID GID
	// descs[i] describes the user with UID uidBase+i. Registrations
	// only append; the heavyweight *User / private *Group views are
	// built on demand and cached in users/groups. Private GIDs are
	// handed out in the same monotonic order as UIDs, so descriptor
	// primaries are strictly increasing and a GID→owner lookup is a
	// binary search. Past len, up to names.kept, the array still holds
	// the users the last Reset dropped, for the next trial to replay.
	descs   []userDesc
	names   nameIndex      // every user but root, eager: the duplicate-name check needs it
	users   map[UID]*User  // root + materialized users (cache over descs)
	groups  map[GID]*Group // root + project groups + materialized private groups
	gByName map[string]GID // root + project groups (private names resolve via names)
	// gen counts logical mutations — registrations and group changes,
	// not cache materialization — so Reset on a registry whose state
	// matches the pristine mark is O(1).
	gen uint64
	// Pristine mark for the trial-lifecycle Reset contract (see
	// MarkPristine).
	mark *pristineMark
}

// userDesc is the compact per-user record: everything else (*User,
// private *Group, home path) is derived from it on demand.
type userDesc struct {
	name    string
	primary GID
}

// pristineMark captures what Reset rewinds to: the ID counters, the
// descriptor count, and deep copies of the mutable (non-private)
// groups. Users and private groups need no copies — descriptors are
// append-only and private groups immutable, so truncation suffices.
type pristineMark struct {
	nextUID UID
	nextGID GID
	descs   int
	gen     uint64
	groups  map[GID]*Group
	// groupNames is len(gByName) at the mark: an equal size later
	// means gByName holds exactly the marked names (see Registry).
	groupNames int
}

// uidBase/gidBase are where non-system ID numbering starts; the
// descriptor table is indexed by uid-uidBase.
const (
	uidBase UID = 1000
	gidBase GID = 1000
)

// Registry errors.
var (
	ErrExists        = errors.New("ids: name already exists")
	ErrNoSuchUser    = errors.New("ids: no such user")
	ErrNoSuchGroup   = errors.New("ids: no such group")
	ErrPrivateGroup  = errors.New("ids: user-private groups cannot change membership")
	ErrNotSteward    = errors.New("ids: caller is not a data steward of the group")
	ErrNotMember     = errors.New("ids: user is not a member of the group")
	ErrAlreadyMember = errors.New("ids: user is already a member of the group")
	ErrRegistryFull  = errors.New("ids: registry is full")
)

// NewRegistry returns a registry pre-populated with root (uid 0) and
// root's group (gid 0).
func NewRegistry() *Registry {
	r := &Registry{
		names:   newNameIndex(),
		users:   make(map[UID]*User),
		groups:  make(map[GID]*Group),
		gByName: make(map[string]GID),
	}
	r.resetToFresh()
	return r
}

// resetToFresh rewinds the tables to the NewRegistry state.
func (r *Registry) resetToFresh() {
	r.nextUID, r.nextGID = uidBase, gidBase
	r.descs = r.descs[:0]
	clear(r.users)
	clear(r.groups)
	clear(r.gByName)
	r.groups[RootGroup] = &Group{
		GID: RootGroup, Name: "root", Private: true,
		members: map[UID]bool{Root: true},
	}
	r.gByName["root"] = RootGroup
	r.users[Root] = &User{UID: Root, Name: "root", Primary: RootGroup, HomePath: "/root"}
	r.gen = 0
}

// cloneGroup deep-copies a group — the single copy site both the
// pristine snapshot and Reset's reinstall use, so a future Group
// field cannot be deep-copied in one and aliased in the other.
func cloneGroup(g *Group) *Group {
	members := make(map[UID]bool, len(g.members))
	for uid := range g.members {
		members[uid] = true
	}
	return &Group{
		GID: g.GID, Name: g.Name, Private: g.Private,
		Stewards: append([]UID(nil), g.Stewards...),
		members:  members,
	}
}

// MarkPristine records the registry's current state as the target of
// Reset. The cluster assembly calls it after creating the escalation
// groups, so Reset rewinds to "root plus the standard groups" — and
// the first AddUser after a Reset hands out the same UID/GID a fresh
// cluster would. Only the mutable groups are deep-copied: descriptors
// are append-only and private groups immutable, so the mark is O(
// project groups), not O(users). It forgets the descriptors the last
// Reset kept for replay (see Registry); at cluster assembly there are
// none. A registry unchanged since its mark (the generation proves it,
// as in Reset) keeps that mark and its replayable descriptors, so
// re-marking it is O(1) and allocates nothing.
func (r *Registry) MarkPristine() {
	if r.mark != nil && r.gen == r.mark.gen {
		return
	}
	m := &pristineMark{
		nextUID:    r.nextUID,
		nextGID:    r.nextGID,
		descs:      len(r.descs),
		gen:        r.gen,
		groups:     make(map[GID]*Group),
		groupNames: len(r.gByName),
	}
	// Kept descriptors registered under an earlier mark may name a
	// group this mark holds, so none of them may replay under it.
	r.names.forget(r.descs)
	for gid, g := range r.groups {
		if !g.Private {
			m.groups[gid] = cloneGroup(g)
			g.changed = false
		}
	}
	r.mark = m
}

// Reset rewinds the registry to the MarkPristine state (or to the
// NewRegistry state if no mark was taken): users and groups created
// since are dropped, membership changes to pristine groups are rolled
// back, and ID numbering restarts at the marked counters. Dropping
// users truncates the descriptors and leaves the name index as it is,
// so a next trial that registers the same names in the same order
// replays them (see nameIndex) and allocates nothing. When nothing was
// logically mutated (materializing cached views does not count) it
// returns immediately, so pooled XXL trials pay nothing for untouched
// registries.
func (r *Registry) Reset() {
	m := r.mark
	if m == nil {
		if r.gen != 0 {
			r.resetToFresh()
		}
		return
	}
	if r.gen == m.gen {
		// Nothing logically changed since the mark. Views cached in
		// the meantime all describe pristine users, so they stay.
		return
	}
	r.descs = r.descs[:m.descs]
	for uid := range r.users {
		if uid >= m.nextUID {
			delete(r.users, uid)
		}
	}
	for gid := range r.groups {
		if gid >= m.nextGID {
			delete(r.groups, gid)
		}
	}
	for name, gid := range r.gByName {
		if gid >= m.nextGID {
			delete(r.gByName, name)
		}
	}
	// Mutable groups whose membership changed are reinstalled as fresh
	// copies: the pristine mark must survive membership mutations of
	// the *next* trial too. An unchanged group still equals its mark.
	for gid, g := range m.groups {
		if r.groups[gid].changed {
			r.groups[gid] = cloneGroup(g)
		}
	}
	r.nextUID, r.nextGID = m.nextUID, m.nextGID
	r.gen = m.gen
}

// markedGroupNames is the size of the group namespace at the mark:
// root plus the marked project groups, or root alone without a mark.
func (r *Registry) markedGroupNames() int {
	if r.mark == nil {
		return 1
	}
	return r.mark.groupNames
}

// Register records a user plus their user-private group (same name)
// without materializing any per-user state: one descriptor append and
// one name-index insert, or neither when it replays the name the
// previous trial registered at this position, and then no
// group-namespace probe either unless a project group was created
// since the mark. This is the
// bulk-provisioning path XXL campaigns use to stand up millions of
// users; AddUser layers the eager *User view on top for callers that
// want it right away. A name already taken fails with ErrExists, and a
// user past the 2^24-2 cap with ErrRegistryFull.
func (r *Registry) Register(name string) (UID, error) {
	// A replayed name cannot be live; otherwise one hash and one probe
	// serve as both the duplicate check and the insert slot.
	replay := r.names.replay(r.descs, name)
	var h uint64
	var slot int
	if !replay {
		h = r.names.hash(name)
		var dup bool
		if slot, dup = r.names.find(r.descs, name, h); dup {
			return NoUID, fmt.Errorf("%w: user %q", ErrExists, name)
		}
	}
	// A replay cannot be "root" or clash with a group while the group
	// namespace holds exactly the marked names (see Registry).
	if !replay || len(r.gByName) != r.markedGroupNames() {
		if name == "root" {
			return NoUID, fmt.Errorf("%w: user %q", ErrExists, name)
		}
		if _, dup := r.gByName[name]; dup {
			return NoUID, fmt.Errorf("%w: group %q", ErrExists, name)
		}
	}
	if r.nextUID-uidBase >= maxUsers {
		return NoUID, fmt.Errorf("%w: %d users is the cap, user %q refused", ErrRegistryFull, maxUsers, name)
	}
	uid := r.nextUID
	gid := r.nextGID
	r.nextUID++
	r.nextGID++
	if replay {
		r.descs = r.descs[:len(r.descs)+1]
		r.descs[len(r.descs)-1].primary = gid
	} else {
		r.descs = append(r.descs, userDesc{name: name, primary: gid})
		r.names.add(r.descs, slot, h)
	}
	r.gen++
	return uid, nil
}

// AddUser creates a user plus their user-private group (same name).
// The home path follows the paper's layout: /home/<name>.
func (r *Registry) AddUser(name string) (*User, error) {
	uid, err := r.Register(name)
	if err != nil {
		return nil, err
	}
	return r.User(uid)
}

// descOf returns the descriptor backing uid, if uid is a registered
// (non-root) user.
func (r *Registry) descOf(uid UID) (*userDesc, bool) {
	if uid < uidBase || int(uid-uidBase) >= len(r.descs) {
		return nil, false
	}
	return &r.descs[uid-uidBase], true
}

// ownerOf finds the user whose private group is gid. Private GIDs are
// handed out in ascending UID order, so this is a binary search over
// the descriptor primaries.
func (r *Registry) ownerOf(gid GID) (UID, *userDesc, bool) {
	i := sort.Search(len(r.descs), func(k int) bool { return r.descs[k].primary >= gid })
	if i == len(r.descs) || r.descs[i].primary != gid {
		return NoUID, nil, false
	}
	return uidBase + UID(i), &r.descs[i], true
}

// uidByName resolves a login name without materializing the user.
func (r *Registry) uidByName(name string) (UID, bool) {
	if name == "root" {
		return Root, true
	}
	i, ok := r.names.lookup(r.descs, name)
	if !ok {
		return NoUID, false
	}
	return uidBase + UID(i), true
}

// hasUser reports whether uid names an existing user, materialized or
// not.
func (r *Registry) hasUser(uid UID) bool {
	if _, ok := r.users[uid]; ok {
		return true
	}
	_, ok := r.descOf(uid)
	return ok
}

// primaryOf returns uid's primary GID without materializing the user.
func (r *Registry) primaryOf(uid UID) (GID, bool) {
	if u, ok := r.users[uid]; ok {
		return u.Primary, true
	}
	if d, ok := r.descOf(uid); ok {
		return d.primary, true
	}
	return NoGID, false
}

// AddProjectGroup creates an approved project group with the given
// data stewards. Stewards are implicitly members.
func (r *Registry) AddProjectGroup(name string, stewards ...UID) (*Group, error) {
	if _, dup := r.gByName[name]; dup {
		return nil, fmt.Errorf("%w: group %q", ErrExists, name)
	}
	// User-private groups share their owner's name, so a user name
	// also blocks the group namespace.
	if _, dup := r.uidByName(name); dup {
		return nil, fmt.Errorf("%w: group %q", ErrExists, name)
	}
	for _, s := range stewards {
		if !r.hasUser(s) {
			return nil, fmt.Errorf("%w: steward uid %d", ErrNoSuchUser, s)
		}
	}
	gid := r.nextGID
	r.nextGID++
	g := &Group{GID: gid, Name: name, Stewards: append([]UID(nil), stewards...), members: make(map[UID]bool)}
	for _, s := range stewards {
		g.members[s] = true
	}
	r.groups[gid] = g
	r.gByName[name] = gid
	r.gen++
	return g, nil
}

// AddToGroup adds uid to a project group. Only a data steward of the
// group (or root) may do so; user-private groups are immutable
// (paper §IV-C: stewards approve adding and deleting users).
func (r *Registry) AddToGroup(actor UID, gid GID, uid UID) error {
	g, ok := r.groups[gid]
	if !ok {
		if _, _, private := r.ownerOf(gid); private {
			return ErrPrivateGroup
		}
		return fmt.Errorf("%w: gid %d", ErrNoSuchGroup, gid)
	}
	if g.Private {
		return ErrPrivateGroup
	}
	if actor != Root && !g.IsSteward(actor) {
		return ErrNotSteward
	}
	if !r.hasUser(uid) {
		return fmt.Errorf("%w: uid %d", ErrNoSuchUser, uid)
	}
	if g.members[uid] {
		return ErrAlreadyMember
	}
	g.members[uid] = true
	g.changed = true
	r.gen++
	return nil
}

// User returns the user with the given UID, materializing (and
// caching) its *User view on first access.
func (r *Registry) User(uid UID) (*User, error) {
	if u, ok := r.users[uid]; ok {
		return u, nil
	}
	d, ok := r.descOf(uid)
	if !ok {
		return nil, fmt.Errorf("%w: uid %d", ErrNoSuchUser, uid)
	}
	u := &User{UID: uid, Name: d.name, Primary: d.primary, HomePath: "/home/" + d.name}
	r.users[uid] = u
	return u, nil
}

// Group returns the group with the given GID, materializing (and
// caching) a private group's *Group view on first access.
func (r *Registry) Group(gid GID) (*Group, error) {
	if g, ok := r.groups[gid]; ok {
		return g, nil
	}
	uid, d, ok := r.ownerOf(gid)
	if !ok {
		return nil, fmt.Errorf("%w: gid %d", ErrNoSuchGroup, gid)
	}
	g := &Group{GID: gid, Name: d.name, Private: true, members: map[UID]bool{uid: true}}
	r.groups[gid] = g
	return g, nil
}

// GroupsOf returns the GIDs the user belongs to (primary first, the
// rest sorted), i.e. the supplemental group set a login session gets.
// Only the materialized/project tables are scanned: an unmaterialized
// private group has exactly its owner as member, so it can never
// contribute to another user's supplemental set.
func (r *Registry) GroupsOf(uid UID) ([]GID, error) {
	primary, ok := r.primaryOf(uid)
	if !ok {
		return nil, fmt.Errorf("%w: uid %d", ErrNoSuchUser, uid)
	}
	var rest []GID
	for gid, g := range r.groups {
		if gid != primary && g.members[uid] {
			rest = append(rest, gid)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append([]GID{primary}, rest...), nil
}

// LoginCredential builds the credential a fresh login session gets:
// uid, egid = user-private group, supplemental groups = all groups the
// user is a member of.
func (r *Registry) LoginCredential(uid UID) (Credential, error) {
	groups, err := r.GroupsOf(uid)
	if err != nil {
		return Credential{}, err
	}
	return Credential{UID: uid, EGID: groups[0], Groups: groups}, nil
}

// SwitchGroup implements newgrp/sg: returns a credential with the
// effective GID switched to gid, but only if the user is a member.
// This is the opt-in step that lets a listener accept project-group
// peers through the UBF (paper §IV-D).
func (r *Registry) SwitchGroup(c Credential, gid GID) (Credential, error) {
	var member bool
	g, ok := r.groups[gid]
	if ok {
		member = g.Has(c.UID)
	} else {
		var owner UID
		owner, _, ok = r.ownerOf(gid)
		member = ok && owner == c.UID
	}
	if !ok {
		return c, fmt.Errorf("%w: gid %d", ErrNoSuchGroup, gid)
	}
	if !member && !c.IsRoot() {
		return c, fmt.Errorf("%w: uid %d not in gid %d", ErrNotMember, c.UID, gid)
	}
	return c.WithEGID(gid), nil
}

// SharedGroup reports whether two users share at least one
// non-private group — the paper's definition of "allowed to share".
// Private groups (materialized or not) never qualify, so scanning the
// materialized/project tables is exhaustive.
func (r *Registry) SharedGroup(a, b UID) bool {
	for _, g := range r.groups {
		if !g.Private && g.members[a] && g.members[b] {
			return true
		}
	}
	return false
}
