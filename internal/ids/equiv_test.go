package ids

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The lazy registry materializes *User and private *Group views on
// first access; these tests pin that the observable behavior is
// byte-identical regardless of when (or whether) materialization
// happens — the equivalence the eager implementation provided for
// free. "Eager" below means every accessor is touched immediately
// after each mutation; "lazy" means nothing is touched until the
// final observation pass.

// userByName resolves a login name through the name index.
func (r *Registry) userByName(name string) (*User, error) {
	uid, ok := r.uidByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchUser, name)
	}
	return r.User(uid)
}

// groupByName resolves a group name; a user-private group carries its
// owner's name.
func (r *Registry) groupByName(name string) (*Group, error) {
	gid, ok := r.gByName[name]
	if !ok {
		if uid, isUser := r.uidByName(name); isUser {
			if d, dok := r.descOf(uid); dok {
				gid, ok = d.primary, true
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	return r.Group(gid)
}

// allUsers returns every UID, sorted ascending.
func (r *Registry) allUsers() []UID {
	out := []UID{Root}
	for i := range r.descs {
		out = append(out, uidBase+UID(i))
	}
	return out
}

// allGroups returns every GID, sorted ascending.
func (r *Registry) allGroups() []GID {
	var out []GID
	for gid := range r.groups {
		// Materialized private groups are counted via their owner's
		// descriptor below.
		if _, _, private := r.ownerOf(gid); !private {
			out = append(out, gid)
		}
	}
	for i := range r.descs {
		out = append(out, r.descs[i].primary)
	}
	slices.Sort(out)
	return out
}

// regObservation is the full externally visible state of a registry.
type regObservation struct {
	Users  []UID
	Groups []GID
	// Per user: everything the accessor API exposes.
	UserViews   map[UID]User
	Creds       map[UID]Credential
	GroupsOf    map[UID][]GID
	ByName      map[string]UID
	GroupViews  map[GID]Group
	GroupMember map[GID][]UID
	GByName     map[string]GID
	Shared      map[string]bool // "a-b" -> SharedGroup(a, b)
	Errors      map[string]string
}

// observe exercises every accessor and records the results. It names
// users/groups by scanning allUsers()/allGroups(), so the observation is
// self-contained and order-sensitive.
func observe(t *testing.T, r *Registry) regObservation {
	t.Helper()
	obs := regObservation{
		UserViews:   map[UID]User{},
		Creds:       map[UID]Credential{},
		GroupsOf:    map[UID][]GID{},
		ByName:      map[string]UID{},
		GroupViews:  map[GID]Group{},
		GroupMember: map[GID][]UID{},
		GByName:     map[string]GID{},
		Shared:      map[string]bool{},
		Errors:      map[string]string{},
	}
	obs.Users = r.allUsers()
	obs.Groups = r.allGroups()
	for _, uid := range obs.Users {
		u, err := r.User(uid)
		if err != nil {
			t.Fatalf("User(%d): %v", uid, err)
		}
		obs.UserViews[uid] = *u
		byName, err := r.userByName(u.Name)
		if err != nil || byName.UID != uid {
			t.Fatalf("userByName(%q) = %v, %v; want uid %d", u.Name, byName, err, uid)
		}
		obs.ByName[u.Name] = byName.UID
		cred, err := r.LoginCredential(uid)
		if err != nil {
			t.Fatalf("LoginCredential(%d): %v", uid, err)
		}
		obs.Creds[uid] = cred
		gids, err := r.GroupsOf(uid)
		if err != nil {
			t.Fatalf("GroupsOf(%d): %v", uid, err)
		}
		obs.GroupsOf[uid] = gids
	}
	for _, gid := range obs.Groups {
		g, err := r.Group(gid)
		if err != nil {
			t.Fatalf("Group(%d): %v", gid, err)
		}
		gv := *g
		gv.members = nil // compare membership via the sorted slice below
		obs.GroupViews[gid] = gv
		members := g.Members()
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		obs.GroupMember[gid] = members
		byName, err := r.groupByName(g.Name)
		if err != nil || byName.GID != gid {
			t.Fatalf("groupByName(%q) = %v, %v; want gid %d", g.Name, byName, err, gid)
		}
		obs.GByName[g.Name] = byName.GID
	}
	for _, a := range obs.Users {
		for _, b := range obs.Users {
			obs.Shared[fmt.Sprintf("%d-%d", a, b)] = r.SharedGroup(a, b)
		}
	}
	// Error-path equivalence: these must fail identically whether or
	// not the entities involved were ever materialized.
	record := func(key string, err error) {
		if err == nil {
			obs.Errors[key] = ""
			return
		}
		obs.Errors[key] = err.Error()
	}
	_, dupErr := r.Register(obs.UserViews[obs.Users[len(obs.Users)-1]].Name)
	record("dup-register", dupErr)
	if len(obs.Users) > 1 {
		uid := obs.Users[1]
		record("join-private", r.AddToGroup(Root, obs.UserViews[uid].Primary, Root))
	}
	record("no-such-group", r.AddToGroup(Root, GID(99999), Root))
	return obs
}

// touchAll forces materialization of every view — the eager schedule.
func touchAll(t *testing.T, r *Registry) {
	t.Helper()
	for _, uid := range r.allUsers() {
		if _, err := r.User(uid); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LoginCredential(uid); err != nil {
			t.Fatal(err)
		}
		if _, err := r.GroupsOf(uid); err != nil {
			t.Fatal(err)
		}
	}
	for _, gid := range r.allGroups() {
		if _, err := r.Group(gid); err != nil {
			t.Fatal(err)
		}
	}
}

// script applies the same mutation sequence to r; when eager is set,
// every view is materialized after each mutation.
func script(t *testing.T, r *Registry, eager bool) {
	t.Helper()
	step := func() {
		if eager {
			touchAll(t, r)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := r.AddUser(fmt.Sprintf("user%d", i)); err != nil {
			t.Fatal(err)
		}
		step()
	}
	// Bulk registrations interleaved with full adds.
	for i := 0; i < 20; i++ {
		if _, err := r.Register(fmt.Sprintf("bulk%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	step()
	alice, err := r.userByName("user0")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := r.userByName("user1")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := r.AddProjectGroup("proj-a", alice.UID)
	if err != nil {
		t.Fatal(err)
	}
	step()
	if err := r.AddToGroup(alice.UID, proj.GID, bob.UID); err != nil {
		t.Fatal(err)
	}
	step()
	// A membership granted to a user that was only bulk-registered,
	// never materialized (on the lazy side).
	carol, err := r.userByName("bulk7")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddToGroup(alice.UID, proj.GID, carol.UID); err != nil {
		t.Fatal(err)
	}
	step()
	if _, err := r.AddProjectGroup("proj-b", carol.UID); err != nil {
		t.Fatal(err)
	}
	step()
}

func TestLazyEagerEquivalence(t *testing.T) {
	eager, lazy := NewRegistry(), NewRegistry()
	script(t, eager, true)
	script(t, lazy, false)
	a, b := observe(t, eager), observe(t, lazy)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("eager/lazy observations diverge:\neager: %+v\nlazy:  %+v", a, b)
	}
	// Observation itself materializes everything; a second pass must
	// be a fixed point.
	if c := observe(t, lazy); !reflect.DeepEqual(b, c) {
		t.Fatalf("second observation diverges from first:\n1st: %+v\n2nd: %+v", b, c)
	}
}

func TestLazyEagerResetEquivalence(t *testing.T) {
	eager, lazy := NewRegistry(), NewRegistry()
	script(t, eager, true)
	script(t, lazy, false)
	eager.MarkPristine()
	lazy.MarkPristine()

	// A third registry records the expected post-Reset state: the
	// script with nothing after the mark.
	want := NewRegistry()
	script(t, want, false)
	want.MarkPristine()

	// Post-mark churn on both, with different materialization
	// schedules.
	churn := func(r *Registry, eagerly bool) {
		for i := 0; i < 10; i++ {
			if _, err := r.Register(fmt.Sprintf("trial%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.AddUser("trial-active"); err != nil {
			t.Fatal(err)
		}
		steward, err := r.userByName("user2")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddProjectGroup("trial-proj", steward.UID); err != nil {
			t.Fatal(err)
		}
		if eagerly {
			touchAll(t, r)
		}
	}
	churn(eager, true)
	churn(lazy, false)
	eager.Reset()
	lazy.Reset()

	a, b, w := observe(t, eager), observe(t, lazy), observe(t, want)
	if !reflect.DeepEqual(a, w) {
		t.Fatalf("eager post-Reset diverges from pristine:\ngot:  %+v\nwant: %+v", a, w)
	}
	if !reflect.DeepEqual(b, w) {
		t.Fatalf("lazy post-Reset diverges from pristine:\ngot:  %+v\nwant: %+v", b, w)
	}
}

// Running a trial, resetting, and running it again (twice) must leave
// the registry observably identical to one that ran the trial once,
// under either materialization schedule: the same users, UIDs, GIDs
// and groups. The trial sizes cover one that fits the name index as
// marked and ones that grow it once and many times over.
func TestLazyEagerResetReregisterEquivalence(t *testing.T) {
	trial := func(r *Registry, n int, eagerly bool) {
		for i := 0; i < n; i++ {
			if _, err := r.Register(fmt.Sprintf("trial%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.AddUser("trial-active"); err != nil {
			t.Fatal(err)
		}
		steward, err := r.userByName("trial0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddProjectGroup("trial-proj", steward.UID); err != nil {
			t.Fatal(err)
		}
		if eagerly {
			touchAll(t, r)
		}
	}
	for _, tc := range []struct {
		n    int
		grow bool
	}{{4, false}, {60, true}, {200, true}} {
		want := NewRegistry()
		script(t, want, false)
		want.MarkPristine()
		trial(want, tc.n, false)
		w := observe(t, want)

		for _, eagerly := range []bool{true, false} {
			r := NewRegistry()
			script(t, r, eagerly)
			r.MarkPristine()
			marked := len(r.names.slots)
			trial(r, tc.n, eagerly)
			if grew := len(r.names.slots) != marked; grew != tc.grow {
				t.Fatalf("n=%d eager=%v: trial grew the name index = %v, want %v", tc.n, eagerly, grew, tc.grow)
			}
			for k := 0; k < 2; k++ {
				r.Reset()
				trial(r, tc.n, eagerly)
			}
			if got := observe(t, r); !reflect.DeepEqual(got, w) {
				t.Fatalf("n=%d eager=%v: re-registered trial diverges from a single run:\ngot:  %+v\nwant: %+v", tc.n, eagerly, got, w)
			}
		}
	}
}

// TestLazyErrorIdentity pins the error classes the lazy fallbacks must
// preserve: operations on a never-materialized private group behave
// exactly like on a materialized one.
func TestLazyErrorIdentity(t *testing.T) {
	r := NewRegistry()
	uid, err := r.Register("ghost")
	if err != nil {
		t.Fatal(err)
	}
	gid, ok := func() (GID, bool) {
		c, err := r.LoginCredential(uid)
		if err != nil {
			return NoGID, false
		}
		return c.EGID, true
	}()
	if !ok {
		t.Fatal("no login credential for bulk-registered user")
	}
	if err := r.AddToGroup(Root, gid, Root); !errors.Is(err, ErrPrivateGroup) {
		t.Fatalf("AddToGroup on lazy private group: got %v, want ErrPrivateGroup", err)
	}
	if err := r.AddToGroup(Root, GID(424242), Root); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("AddToGroup on missing group: got %v, want ErrNoSuchGroup", err)
	}
	if _, err := r.AddProjectGroup("ghost", Root); !errors.Is(err, ErrExists) {
		t.Fatalf("AddProjectGroup colliding with a lazy private name: got %v, want ErrExists", err)
	}
}

// replayOp is one registry call of a replay script: 'r' Register, 'g'
// AddProjectGroup with root as steward, 'm' MarkPristine.
type replayOp struct {
	kind byte
	name string
}

// apply runs op on r and returns its result, error text included.
func (op replayOp) apply(r *Registry) string {
	var id any
	var err error
	switch op.kind {
	case 'r':
		id, err = r.Register(op.name)
	case 'g':
		var g *Group
		if g, err = r.AddProjectGroup(op.name, Root); err == nil {
			id = g.GID
		}
	case 'm':
		r.MarkPristine()
	}
	return fmt.Sprint(id, err)
}

// replayScript returns one trial's calls. Its registrations replay
// prev, the names the next Reset drops, identically, as a prefix or
// with two swapped, and may go on with new names. Between them it
// re-registers names it already registered, names a project group
// after the next name, and may mark the registry pristine; a mark placed where a project group
// was just named after the next name holds that group, so the
// registration that follows tests that the mark forgot the kept
// descriptors.
func replayScript(rng *rand.Rand, prev []string, fresh func() string, mark bool) (string, []replayOp) {
	mode, names := "identical", slices.Clone(prev)
	switch rng.IntN(3) {
	case 1:
		mode, names = "prefix", names[:rng.IntN(len(names)+1)]
	case 2:
		if len(names) >= 2 {
			i, j := rng.IntN(len(names)-1), len(names)-1
			mode, names[i], names[j] = "reordered", names[j], names[i]
		}
	}
	for k := 10 * rng.IntN(3); k > 0; k-- {
		names = append(names, fresh())
	}
	markAt := -1
	if mark && rng.IntN(2) == 0 {
		markAt = rng.IntN(len(names) + 1)
	}
	var ops []replayOp
	for i, name := range names {
		if i > 0 && rng.IntN(8) == 0 {
			ops = append(ops, replayOp{'r', names[rng.IntN(i)]})
		}
		if rng.IntN(12) == 0 || i == markAt && rng.IntN(2) == 0 {
			ops = append(ops, replayOp{'g', name})
		}
		if i == markAt {
			ops = append(ops, replayOp{'m', ""})
		}
		ops = append(ops, replayOp{'r', name})
	}
	if markAt == len(names) {
		ops = append(ops, replayOp{'m', ""})
	}
	return mode, ops
}

// A registry that replays the last trial's names after Reset must be
// observably identical to one that never replayed: a fresh registry
// given the calls that built the state Reset rewound to, then the same
// trial. Seeded scripts run several Reset cycles, with and without a
// pristine mark, and every call's result and every cycle's observation
// must match. The test also counts the situations the replay path must
// get right and fails if the scripts missed one.
func TestRegistryReplayEquivalence(t *testing.T) {
	seen := map[string]int{}
	for _, mark := range []bool{true, false} {
		for seed := uint64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewPCG(seed, 26))
			next := 0
			fresh := func() string { next++; return fmt.Sprintf("n%d", next) }
			r := NewRegistry()
			// hist holds the calls a fresh registry needs to reach r's
			// state; Reset cuts it back to the calls up to the mark.
			hist := []replayOp{{'r', "staff0"}, {'g', "proj"}, {'r', "staff1"}}
			for range 10 {
				hist = append(hist, replayOp{'r', fresh()})
			}
			markLen := 0
			if mark {
				hist = append(hist, replayOp{'m', ""})
				markLen = len(hist)
			}
			for _, op := range hist {
				op.apply(r)
			}
			for cycle := range 5 {
				from := 0
				if r.mark != nil {
					from = r.mark.descs
				}
				var prev []string
				for _, d := range r.descs[from:] {
					prev = append(prev, d.name)
				}
				r.Reset()
				hist = hist[:markLen]
				ref := NewRegistry()
				for _, op := range hist {
					op.apply(ref)
				}
				mode, ops := replayScript(rng, prev, fresh, mark)
				seen[mode]++
				if !mark {
					seen["reset without a mark"]++
				}
				for _, op := range ops {
					n := len(r.descs)
					replaying := n < r.names.kept
					keptAhead := replaying && slices.ContainsFunc(r.descs[n:r.names.kept], func(d userDesc) bool { return d.name == op.name })
					switch {
					case op.kind == 'r' && keptAhead && r.descs[:n+1][n].name == op.name:
						seen["replay"]++
						if _, clash := r.gByName[op.name]; clash {
							seen["replay of a name a project group took"]++
						}
					case op.kind == 'r' && replaying && !keptAhead && slices.ContainsFunc(r.descs[from:], func(d userDesc) bool { return d.name == op.name }):
						seen["re-register during a replay"]++
					case op.kind == 'g' && keptAhead:
						seen["project group named after a kept name"]++
					case op.kind == 'm' && replaying && r.gByName[r.descs[:n+1][n].name] != 0:
						seen["mark while a project group holds the next kept name"]++
					case op.kind == 'm' && replaying:
						seen["mark during a replay"]++
					}
					got, want := op.apply(r), op.apply(ref)
					if got != want {
						t.Fatalf("mark=%v seed %d cycle %d (%s): %c %q = %s, want %s as a registry that never replayed", mark, seed, cycle, mode, op.kind, op.name, got, want)
					}
					hist = append(hist, op)
					if op.kind == 'm' {
						markLen = len(hist)
					}
				}
				if got, want := observe(t, r), observe(t, ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("mark=%v seed %d cycle %d (%s): observation diverges from a registry that never replayed:\ngot:  %+v\nwant: %+v", mark, seed, cycle, mode, got, want)
				}
			}
		}
	}
	for _, k := range []string{
		"identical", "prefix", "reordered", "reset without a mark", "replay",
		"replay of a name a project group took", "re-register during a replay",
		"project group named after a kept name", "mark during a replay",
		"mark while a project group holds the next kept name",
	} {
		if seen[k] == 0 {
			t.Errorf("no script covered: %s", k)
		}
	}
	t.Logf("covered: %v", seen)
}
