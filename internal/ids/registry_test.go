package ids

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddUserCreatesPrivateGroup(t *testing.T) {
	r := NewRegistry()
	u, err := r.AddUser("alice")
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	g, err := r.Group(u.Primary)
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if !g.Private {
		t.Errorf("primary group is not private")
	}
	if g.Name != "alice" {
		t.Errorf("private group name = %q, want alice", g.Name)
	}
	if len(g.members) != 1 || !g.Has(u.UID) {
		t.Errorf("private group members = %v, want exactly [%d]", g.Members(), u.UID)
	}
	if u.HomePath != "/home/alice" {
		t.Errorf("home = %q", u.HomePath)
	}
}

func TestAddUserDuplicateName(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddUser("bob"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate AddUser err = %v, want ErrExists", err)
	}
}

func TestPrivateGroupImmutable(t *testing.T) {
	r := NewRegistry()
	a, _ := r.AddUser("alice")
	b, _ := r.AddUser("bob")
	if err := r.AddToGroup(Root, a.Primary, b.UID); !errors.Is(err, ErrPrivateGroup) {
		t.Errorf("adding to private group err = %v, want ErrPrivateGroup", err)
	}
}

func TestProjectGroupStewardGating(t *testing.T) {
	r := NewRegistry()
	lead, _ := r.AddUser("lead")
	member, _ := r.AddUser("member")
	outsider, _ := r.AddUser("outsider")
	g, err := r.AddProjectGroup("proj", lead.UID)
	if err != nil {
		t.Fatalf("AddProjectGroup: %v", err)
	}
	if !g.Has(lead.UID) {
		t.Errorf("steward not implicitly a member")
	}
	// Non-steward cannot add.
	if err := r.AddToGroup(outsider.UID, g.GID, member.UID); !errors.Is(err, ErrNotSteward) {
		t.Errorf("non-steward add err = %v, want ErrNotSteward", err)
	}
	// Steward can add.
	if err := r.AddToGroup(lead.UID, g.GID, member.UID); err != nil {
		t.Fatalf("steward add: %v", err)
	}
	if err := r.AddToGroup(lead.UID, g.GID, member.UID); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("re-add err = %v, want ErrAlreadyMember", err)
	}
}

func TestLoginCredential(t *testing.T) {
	r := NewRegistry()
	a, _ := r.AddUser("alice")
	lead, _ := r.AddUser("lead")
	g, _ := r.AddProjectGroup("proj", lead.UID)
	if err := r.AddToGroup(lead.UID, g.GID, a.UID); err != nil {
		t.Fatal(err)
	}
	c, err := r.LoginCredential(a.UID)
	if err != nil {
		t.Fatal(err)
	}
	if c.EGID != a.Primary {
		t.Errorf("login egid = %d, want private group %d", c.EGID, a.Primary)
	}
	if !c.InGroup(g.GID) {
		t.Errorf("login groups %v missing project group %d", c.Groups, g.GID)
	}
	if len(c.Groups) != 2 {
		t.Errorf("groups = %v, want exactly primary+project", c.Groups)
	}
	// A non-member's credential carries its private group alone.
	b, _ := r.AddUser("bob")
	if c, err := r.LoginCredential(b.UID); err != nil || c.UID != b.UID || c.InGroup(g.GID) || len(c.Groups) != 1 {
		t.Errorf("non-member LoginCredential = %+v, %v", c, err)
	}
}

func TestSwitchGroup(t *testing.T) {
	r := NewRegistry()
	a, _ := r.AddUser("alice")
	lead, _ := r.AddUser("lead")
	g, _ := r.AddProjectGroup("proj", lead.UID)
	if err := r.AddToGroup(lead.UID, g.GID, a.UID); err != nil {
		t.Fatal(err)
	}
	c, _ := r.LoginCredential(a.UID)
	switched, err := r.SwitchGroup(c, g.GID)
	if err != nil {
		t.Fatalf("SwitchGroup: %v", err)
	}
	if switched.EGID != g.GID {
		t.Errorf("egid = %d, want %d", switched.EGID, g.GID)
	}
	// A non-member cannot switch.
	b, _ := r.AddUser("bob")
	cb, _ := r.LoginCredential(b.UID)
	if _, err := r.SwitchGroup(cb, g.GID); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member switch err = %v, want ErrNotMember", err)
	}
	// Root can switch to anything.
	if _, err := r.SwitchGroup(RootCred(), g.GID); err != nil {
		t.Errorf("root switch: %v", err)
	}
}

func TestSharedGroup(t *testing.T) {
	r := NewRegistry()
	a, _ := r.AddUser("alice")
	b, _ := r.AddUser("bob")
	c, _ := r.AddUser("carol")
	lead, _ := r.AddUser("lead")
	g, _ := r.AddProjectGroup("proj", lead.UID)
	_ = r.AddToGroup(lead.UID, g.GID, a.UID)
	_ = r.AddToGroup(lead.UID, g.GID, b.UID)
	if !r.SharedGroup(a.UID, b.UID) {
		t.Errorf("alice and bob share proj, SharedGroup = false")
	}
	if r.SharedGroup(a.UID, c.UID) {
		t.Errorf("alice and carol share nothing, SharedGroup = true")
	}
	// A steward shares the group with its members only.
	if !r.SharedGroup(lead.UID, a.UID) || r.SharedGroup(lead.UID, c.UID) {
		t.Errorf("SharedGroup(lead, alice), SharedGroup(lead, carol) = %v, %v; want true, false",
			r.SharedGroup(lead.UID, a.UID), r.SharedGroup(lead.UID, c.UID))
	}
	// Private groups never count as shared, even self-vs-self.
	if r.SharedGroup(c.UID, c.UID) {
		t.Errorf("SharedGroup(self,self) via private group = true")
	}
}

func TestCredentialInGroupAndClone(t *testing.T) {
	c := Credential{UID: 5, EGID: 7, Groups: []GID{7, 9}}
	if !c.InGroup(7) || !c.InGroup(9) || c.InGroup(11) {
		t.Errorf("InGroup wrong: %v", c)
	}
	cl := c.Clone()
	cl.Groups[0] = 99
	if c.Groups[0] == 99 {
		t.Errorf("Clone shares backing array")
	}
	w := c.WithEGID(9)
	if w.EGID != 9 || c.EGID != 7 {
		t.Errorf("WithEGID mutated receiver or failed: %v %v", w, c)
	}
}

func TestRootIsAlwaysPresent(t *testing.T) {
	r := NewRegistry()
	u, err := r.User(Root)
	if err != nil || u.Name != "root" {
		t.Fatalf("root lookup: %v %v", u, err)
	}
	if !RootCred().IsRoot() {
		t.Errorf("RootCred not root")
	}
	g, err := r.groupByName("root")
	if err != nil || g.GID != RootGroup {
		t.Fatalf("root group lookup: %v %v", g, err)
	}
}

// Property: for any set of distinct user names, every created user has
// a singleton private group containing exactly themselves, and no two
// users ever share a private group.
func TestQuickUPGInvariant(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRegistry()
		count := int(n%16) + 1
		uids := make([]UID, 0, count)
		for i := 0; i < count; i++ {
			u, err := r.AddUser(string(rune('a'+i)) + "user")
			if err != nil {
				return false
			}
			uids = append(uids, u.UID)
		}
		for _, uid := range uids {
			u, _ := r.User(uid)
			g, err := r.Group(u.Primary)
			if err != nil || !g.Private || len(g.members) != 1 || !g.Has(uid) {
				return false
			}
		}
		// No pair shares anything.
		for i := range uids {
			for j := range uids {
				if i != j && r.SharedGroup(uids[i], uids[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SwitchGroup never changes UID or the supplemental set,
// only the effective GID, and only to a group the user belongs to.
func TestQuickSwitchGroupInvariant(t *testing.T) {
	r := NewRegistry()
	lead, _ := r.AddUser("lead")
	a, _ := r.AddUser("alice")
	g1, _ := r.AddProjectGroup("p1", lead.UID)
	g2, _ := r.AddProjectGroup("p2", lead.UID)
	_ = r.AddToGroup(lead.UID, g1.GID, a.UID)
	c, _ := r.LoginCredential(a.UID)

	f := func(pick uint8) bool {
		targets := []GID{a.Primary, g1.GID, g2.GID, 9999}
		gid := targets[int(pick)%len(targets)]
		nc, err := r.SwitchGroup(c, gid)
		if err != nil {
			// Failure must leave the credential unchanged and must be
			// because the user is not a member (or group missing).
			return nc.EGID == c.EGID && (gid == g2.GID || gid == 9999)
		}
		return nc.UID == c.UID && nc.EGID == gid && len(nc.Groups) == len(c.Groups)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserByNameAndMembers(t *testing.T) {
	r := NewRegistry()
	a, _ := r.AddUser("alice")
	u, err := r.userByName("alice")
	if err != nil || u.UID != a.UID {
		t.Fatalf("userByName = %v, %v", u, err)
	}
	if _, err := r.userByName("ghost"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("ghost lookup err = %v", err)
	}
	g, _ := r.Group(a.Primary)
	members := g.Members()
	if len(members) != 1 || members[0] != a.UID {
		t.Errorf("Members = %v", members)
	}
	if s := RootCred().String(); s == "" {
		t.Error("empty Credential.String")
	}
}
