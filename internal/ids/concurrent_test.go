package ids

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Goroutines sharing one registry mix registrations with the reads and
// group changes a cluster's login and sharing checks make. Run under
// -race it checks the one mutex covers every path; afterwards every
// name resolves to the UID its Register returned.
func TestRegistryConcurrentUse(t *testing.T) {
	const workers, perWorker = 8, 300
	r := NewRegistry()
	proj, err := r.AddProjectGroup("proj", Root)
	if err != nil {
		t.Fatal(err)
	}
	uids := make([][]UID, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				name := fmt.Sprintf("w%d-%d", w, i)
				uid, err := r.Register(name)
				if err != nil {
					t.Error(err)
					return
				}
				uids[w] = append(uids[w], uid)
				if u, err := r.User(uid); err != nil || u.Name != name {
					t.Errorf("User(%d) = %v, %v; want %q", uid, u, err, name)
				}
				if u, err := r.UserByName(name); err != nil || u.UID != uid {
					t.Errorf("UserByName(%q) = %v, %v; want uid %d", name, u, err, uid)
				}
				if i%3 == 0 {
					if err := r.AddToGroup(Root, proj.GID, uid); err != nil {
						t.Error(err)
					}
				}
				c, err := r.LoginCredential(uid)
				if err != nil || c.UID != uid || c.InGroup(proj.GID) != (i%3 == 0) {
					t.Errorf("LoginCredential(%d) = %+v, %v", uid, c, err)
				}
				// Root stewards proj, so it shares a group with its members.
				if got, want := r.SharedGroup(Root, uid), i%3 == 0; got != want {
					t.Errorf("SharedGroup(root, %d) = %v, want %v", uid, got, want)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := range workers {
		for i, uid := range uids[w] {
			name := fmt.Sprintf("w%d-%d", w, i)
			if u, err := r.UserByName(name); err != nil || u.UID != uid {
				t.Fatalf("UserByName(%q) = %v, %v; want uid %d", name, u, err, uid)
			}
		}
	}
	if got, want := len(r.Users()), 1+workers*perWorker; got != want {
		t.Errorf("Users() has %d entries, want %d", got, want)
	}
}

// SwitchGroup decides membership while other goroutines add users to
// and remove them from the same project group. Run under -race it
// checks the member map is read under the registry's lock; every call
// either switches the effective GID or fails with ErrNotMember, and a
// user always switches to their own private group.
func TestRegistrySwitchGroupConcurrent(t *testing.T) {
	const users, rounds = 8, 300
	r := NewRegistry()
	proj, err := r.AddProjectGroup("proj", Root)
	if err != nil {
		t.Fatal(err)
	}
	creds := make([]Credential, users)
	for i := range creds {
		uid, err := r.Register(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if creds[i], err = r.LoginCredential(uid); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range rounds {
			for _, c := range creds {
				var err error
				if k%2 == 0 {
					err = r.AddToGroup(Root, proj.GID, c.UID)
				} else {
					err = r.RemoveFromGroup(Root, proj.GID, c.UID)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for _, c := range creds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				got, err := r.SwitchGroup(c, proj.GID)
				if err == nil && got.EGID != proj.GID || err != nil && !errors.Is(err, ErrNotMember) {
					t.Errorf("SwitchGroup(uid %d, proj) = %+v, %v", c.UID, got, err)
					return
				}
				if got, err := r.SwitchGroup(c, c.EGID); err != nil || got.EGID != c.EGID {
					t.Errorf("SwitchGroup(uid %d, own private group) = %+v, %v", c.UID, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
