package ids

import "testing"

// The Registry Reset contract: users/groups created after the mark
// vanish, memberships of pristine groups roll back, and ID numbering
// rewinds so the next AddUser matches a fresh registry's.
func TestRegistryResetRewindsToMark(t *testing.T) {
	r := NewRegistry()
	supp, err := r.AddProjectGroup("support", Root)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkPristine()

	u1, err := r.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddToGroup(Root, supp.GID, u1.UID); err != nil {
		t.Fatal(err)
	}
	r.Reset()

	if _, err := r.userByName("alice"); err == nil {
		t.Error("trial user survived Reset")
	}
	g, err := r.Group(supp.GID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Has(u1.UID) {
		t.Error("trial group membership survived Reset")
	}
	u2, err := r.AddUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	if u2.UID != u1.UID || u2.Primary != u1.Primary {
		t.Errorf("ID numbering did not rewind: got uid %d gid %d, want %d %d",
			u2.UID, u2.Primary, u1.UID, u1.Primary)
	}
	// The mark survives membership mutations of later trials.
	if err := r.AddToGroup(Root, supp.GID, u2.UID); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	g, _ = r.Group(supp.GID)
	if g.Has(u2.UID) {
		t.Error("second-trial membership leaked into the pristine mark")
	}
}

func TestRegistryResetWithoutMark(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if _, err := r.userByName("alice"); err == nil {
		t.Error("user survived unmarked Reset")
	}
	if _, err := r.User(Root); err != nil {
		t.Error("root must survive any Reset")
	}
	u, err := r.AddUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	if u.UID != 1000 {
		t.Errorf("first UID after unmarked Reset = %d, want 1000", u.UID)
	}
}

// Reset reinstalls a pristine copy of a project group only when the
// trial changed its membership; an untouched group keeps its *Group.
func TestRegistryResetReinstallsOnlyChangedGroups(t *testing.T) {
	r := NewRegistry()
	changed, err := r.AddProjectGroup("changed", Root)
	if err != nil {
		t.Fatal(err)
	}
	untouched, err := r.AddProjectGroup("untouched", Root)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkPristine()

	u, err := r.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddToGroup(Root, changed.GID, u.UID); err != nil {
		t.Fatal(err)
	}
	r.Reset()

	g, err := r.Group(changed.GID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Has(u.UID) || len(g.members) != 1 || !g.Has(Root) {
		t.Errorf("Reset after AddToGroup left members %v, want the pristine {root}", g.Members())
	}
	if g == changed {
		t.Error("Reset kept the *Group whose membership the trial changed")
	}
	if g, _ := r.Group(untouched.GID); g != untouched {
		t.Error("Reset replaced a group the trial never changed")
	}

	// The reinstalled copy is clean for the next trial.
	kept, _ := r.Group(changed.GID)
	if _, err := r.AddUser("carol"); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if g, _ := r.Group(changed.GID); g != kept {
		t.Error("a group reinstalled by one Reset was replaced again without a change")
	}
}
