package ids

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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
type Registry struct {
	mu      sync.RWMutex
	nextUID UID
	nextGID GID
	// descs[i] describes the user with UID uidBase+i. Registrations
	// only append; the heavyweight *User / private *Group views are
	// built on demand and cached in users/groups. Private GIDs are
	// handed out in the same monotonic order as UIDs, so descriptor
	// primaries are strictly increasing and a GID→owner lookup is a
	// binary search.
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
	r.resetToFreshLocked()
	return r
}

// resetToFreshLocked rewinds the tables to the NewRegistry state.
// Caller holds r.mu (or owns the registry exclusively).
func (r *Registry) resetToFreshLocked() {
	r.nextUID, r.nextGID = uidBase, gidBase
	r.descs = r.descs[:0]
	r.names.reset(r.descs)
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
// project groups), not O(users).
func (r *Registry) MarkPristine() {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &pristineMark{
		nextUID: r.nextUID,
		nextGID: r.nextGID,
		descs:   len(r.descs),
		gen:     r.gen,
		groups:  make(map[GID]*Group),
	}
	for gid, g := range r.groups {
		if !g.Private {
			m.groups[gid] = cloneGroup(g)
		}
	}
	r.mark = m
}

// Reset rewinds the registry to the MarkPristine state (or to the
// NewRegistry state if no mark was taken): users and groups created
// since are dropped, membership changes to pristine groups are rolled
// back, and ID numbering restarts at the marked counters. Dropping
// users costs a memclr of the name index plus one reinsert per pristine
// user, and allocates nothing, so the next trial's registrations reuse
// the descriptor and name-index capacity. When nothing was logically
// mutated (materializing cached views does not count) it returns
// immediately, so pooled XXL trials pay nothing for untouched
// registries.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.mark
	if m == nil {
		if r.gen != 0 {
			r.resetToFreshLocked()
		}
		return
	}
	if r.gen == m.gen {
		// Nothing logically changed since the mark. Views cached in
		// the meantime all describe pristine users, so they stay.
		return
	}
	r.descs = r.descs[:m.descs]
	r.names.reset(r.descs)
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
	// Mutable groups are reinstalled as fresh copies: the pristine
	// mark must survive membership mutations of the *next* trial too.
	for gid, g := range m.groups {
		r.groups[gid] = cloneGroup(g)
	}
	r.nextUID, r.nextGID = m.nextUID, m.nextGID
	r.gen = m.gen
}

// Register records a user plus their user-private group (same name)
// without materializing any per-user state: one descriptor append and
// one name-index insert. This is the bulk-provisioning path XXL
// campaigns use to stand up millions of users; AddUser layers the
// eager *User view on top for callers that want it right away.
func (r *Registry) Register(name string) (UID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registerLocked(name)
}

func (r *Registry) registerLocked(name string) (UID, error) {
	// One probe serves as both the duplicate check and the insert slot.
	slot, dup := r.names.find(r.descs, name)
	if dup || name == "root" {
		return NoUID, fmt.Errorf("%w: user %q", ErrExists, name)
	}
	if _, dup := r.gByName[name]; dup {
		return NoUID, fmt.Errorf("%w: group %q", ErrExists, name)
	}
	uid := r.nextUID
	gid := r.nextGID
	r.nextUID++
	r.nextGID++
	r.descs = append(r.descs, userDesc{name: name, primary: gid})
	r.names.add(r.descs, slot)
	r.gen++
	return uid, nil
}

// AddUser creates a user plus their user-private group (same name).
// The home path follows the paper's layout: /home/<name>.
func (r *Registry) AddUser(name string) (*User, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	uid, err := r.registerLocked(name)
	if err != nil {
		return nil, err
	}
	return r.userLocked(uid)
}

// descOf returns the descriptor backing uid, if uid is a registered
// (non-root) user. Caller holds r.mu in either mode.
func (r *Registry) descOf(uid UID) (*userDesc, bool) {
	if uid < uidBase || int(uid-uidBase) >= len(r.descs) {
		return nil, false
	}
	return &r.descs[uid-uidBase], true
}

// ownerOf finds the user whose private group is gid. Private GIDs are
// handed out in ascending UID order, so this is a binary search over
// the descriptor primaries. Caller holds r.mu in either mode.
func (r *Registry) ownerOf(gid GID) (UID, *userDesc, bool) {
	i := sort.Search(len(r.descs), func(k int) bool { return r.descs[k].primary >= gid })
	if i == len(r.descs) || r.descs[i].primary != gid {
		return NoUID, nil, false
	}
	return uidBase + UID(i), &r.descs[i], true
}

// uidByName resolves a login name without materializing the user.
// Caller holds r.mu in either mode.
func (r *Registry) uidByName(name string) (UID, bool) {
	if name == "root" {
		return Root, true
	}
	slot, ok := r.names.find(r.descs, name)
	if !ok {
		return NoUID, false
	}
	return uidBase + UID(r.names.slots[slot]-1), true
}

// hasUser reports whether uid names an existing user, materialized or
// not. Caller holds r.mu in either mode.
func (r *Registry) hasUser(uid UID) bool {
	if _, ok := r.users[uid]; ok {
		return true
	}
	_, ok := r.descOf(uid)
	return ok
}

// primaryOf returns uid's primary GID without materializing the user.
// Caller holds r.mu in either mode.
func (r *Registry) primaryOf(uid UID) (GID, bool) {
	if u, ok := r.users[uid]; ok {
		return u.Primary, true
	}
	if d, ok := r.descOf(uid); ok {
		return d.primary, true
	}
	return NoGID, false
}

// userLocked materializes (or returns the cached) *User view of uid.
// Caller holds r.mu for writing.
func (r *Registry) userLocked(uid UID) (*User, error) {
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

// groupLocked materializes (or returns the cached) *Group view of
// gid. Caller holds r.mu for writing.
func (r *Registry) groupLocked(gid GID) (*Group, error) {
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

// AddProjectGroup creates an approved project group with the given
// data stewards. Stewards are implicitly members.
func (r *Registry) AddProjectGroup(name string, stewards ...UID) (*Group, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.gen++
	return nil
}

// RemoveFromGroup removes uid from a project group; steward-gated
// like AddToGroup. Stewards cannot be removed except by root.
func (r *Registry) RemoveFromGroup(actor UID, gid GID, uid UID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	if !g.members[uid] {
		return ErrNotMember
	}
	if g.IsSteward(uid) && actor != Root {
		return fmt.Errorf("%w: cannot remove steward uid %d", ErrNotSteward, uid)
	}
	delete(g.members, uid)
	r.gen++
	return nil
}

// User returns the user with the given UID.
func (r *Registry) User(uid UID) (*User, error) {
	r.mu.RLock()
	u, ok := r.users[uid]
	r.mu.RUnlock()
	if ok {
		return u, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.userLocked(uid)
}

// UserByName resolves a login name.
func (r *Registry) UserByName(name string) (*User, error) {
	r.mu.RLock()
	uid, ok := r.uidByName(name)
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchUser, name)
	}
	return r.User(uid)
}

// Group returns the group with the given GID.
func (r *Registry) Group(gid GID) (*Group, error) {
	r.mu.RLock()
	g, ok := r.groups[gid]
	r.mu.RUnlock()
	if ok {
		return g, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.groupLocked(gid)
}

// GroupByName resolves a group name.
func (r *Registry) GroupByName(name string) (*Group, error) {
	r.mu.RLock()
	gid, ok := r.gByName[name]
	if !ok {
		// A user-private group carries its owner's name.
		if uid, isUser := r.uidByName(name); isUser {
			if d, dok := r.descOf(uid); dok {
				gid, ok = d.primary, true
			}
		}
	}
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	return r.Group(gid)
}

// GroupsOf returns the GIDs the user belongs to (primary first, the
// rest sorted), i.e. the supplemental group set a login session gets.
// Only the materialized/project tables are scanned: an unmaterialized
// private group has exactly its owner as member, so it can never
// contribute to another user's supplemental set.
func (r *Registry) GroupsOf(uid UID) ([]GID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
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
	r.mu.RLock()
	g, ok := r.groups[gid]
	owner := NoUID
	if !ok {
		if uid, _, found := r.ownerOf(gid); found {
			owner, ok = uid, true
		}
	}
	r.mu.RUnlock()
	if !ok {
		return c, fmt.Errorf("%w: gid %d", ErrNoSuchGroup, gid)
	}
	member := owner == c.UID
	if g != nil {
		member = g.Has(c.UID)
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, g := range r.groups {
		if !g.Private && g.members[a] && g.members[b] {
			return true
		}
	}
	return false
}

// Users returns all UIDs sorted ascending.
func (r *Registry) Users() []UID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]UID, 0, len(r.descs)+1)
	out = append(out, Root)
	for i := range r.descs {
		out = append(out, uidBase+UID(i))
	}
	return out
}

// Groups returns all GIDs sorted ascending.
func (r *Registry) Groups() []GID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GID, 0, len(r.groups)+len(r.descs))
	for gid := range r.groups {
		// Materialized private groups are already counted via their
		// owner's descriptor below.
		if _, _, private := r.ownerOf(gid); !private {
			out = append(out, gid)
		}
	}
	for i := range r.descs {
		out = append(out, r.descs[i].primary)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
