package ids

import (
	"errors"
	"fmt"
	"reflect"
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
// users/groups by scanning Users()/Groups(), so the observation is
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
	obs.Users = r.Users()
	obs.Groups = r.Groups()
	for _, uid := range obs.Users {
		u, err := r.User(uid)
		if err != nil {
			t.Fatalf("User(%d): %v", uid, err)
		}
		obs.UserViews[uid] = *u
		byName, err := r.UserByName(u.Name)
		if err != nil || byName.UID != uid {
			t.Fatalf("UserByName(%q) = %v, %v; want uid %d", u.Name, byName, err, uid)
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
		byName, err := r.GroupByName(g.Name)
		if err != nil || byName.GID != gid {
			t.Fatalf("GroupByName(%q) = %v, %v; want gid %d", g.Name, byName, err, gid)
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
		record("leave-private", r.RemoveFromGroup(Root, obs.UserViews[uid].Primary, uid))
	}
	record("no-such-group", r.AddToGroup(Root, GID(99999), Root))
	return obs
}

// touchAll forces materialization of every view — the eager schedule.
func touchAll(t *testing.T, r *Registry) {
	t.Helper()
	for _, uid := range r.Users() {
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
	for _, gid := range r.Groups() {
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
	alice, err := r.UserByName("user0")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := r.UserByName("user1")
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
	carol, err := r.UserByName("bulk7")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddToGroup(alice.UID, proj.GID, carol.UID); err != nil {
		t.Fatal(err)
	}
	step()
	if err := r.RemoveFromGroup(alice.UID, proj.GID, bob.UID); err != nil {
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
		steward, err := r.UserByName("user2")
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
		steward, err := r.UserByName("trial0")
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
	if err := r.RemoveFromGroup(Root, gid, uid); !errors.Is(err, ErrPrivateGroup) {
		t.Fatalf("RemoveFromGroup on lazy private group: got %v, want ErrPrivateGroup", err)
	}
	if err := r.AddToGroup(Root, GID(424242), Root); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("AddToGroup on missing group: got %v, want ErrNoSuchGroup", err)
	}
	if _, err := r.AddProjectGroup("ghost", Root); !errors.Is(err, ErrExists) {
		t.Fatalf("AddProjectGroup colliding with a lazy private name: got %v, want ErrExists", err)
	}
}
