package vfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func enhancedPolicy() Policy {
	return Policy{SmaskEnabled: true, Smask: DefaultSmask, ACLRestrict: true}
}

func TestSmaskBlocksWorldBitsAtCreate(t *testing.T) {
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	ctx := Context{Cred: creds["alice"], Umask: 0} // no umask: isolate smask
	if err := fs.WriteFile(ctx, "/home/alice/f", nil, 0o666); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.stat(ctx, "/home/alice/f")
	if fi.Mode != 0o660 {
		t.Errorf("create mode = %o, want 660 (world bits masked)", fi.Mode)
	}
}

func TestSmaskEnforcedOnChmod(t *testing.T) {
	// The distinguishing property of the kernel patch: unlike umask,
	// smask is immutable and enforced *even on chmod* (§IV-C).
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	ctx := Ctx(creds["alice"])
	if err := fs.WriteFile(ctx, "/home/alice/f", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(ctx, "/home/alice/f", 0o666); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.stat(ctx, "/home/alice/f")
	if fi.Mode&0o007 != 0 {
		t.Errorf("chmod set world bits despite smask: mode = %o", fi.Mode)
	}
	if fi.Mode&0o660 != 0o660 {
		t.Errorf("chmod lost non-world bits: mode = %o", fi.Mode)
	}
}

func TestSmaskDoesNotBindRoot(t *testing.T) {
	fs, _, _, _ := newWorld(t, enhancedPolicy())
	root := Context{Cred: ids.RootCred()}
	if err := fs.WriteFile(root, "/motd", []byte("welcome"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.stat(root, "/motd")
	if fi.Mode != 0o644 {
		t.Errorf("root create mode = %o, want 644", fi.Mode)
	}
	if err := fs.Chmod(root, "/motd", 0o666); err != nil {
		t.Fatal(err)
	}
	fi, _ = fs.stat(root, "/motd")
	if fi.Mode != 0o666 {
		t.Errorf("root chmod mode = %o, want 666", fi.Mode)
	}
}

func TestBaselineChmodWorldReadableLeaks(t *testing.T) {
	// Baseline (paper's "before"): without smask, chmod o+r on a file
	// in a world-searchable area lets any stranger read it.
	fs, _, creds, _ := newWorld(t, Policy{})
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(alice, "/scratch/f", []byte("oops"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(alice, "/scratch/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile(bob, "/scratch/f"); err != nil || string(got) != "oops" {
		t.Errorf("baseline world-read failed: %q %v (should leak)", got, err)
	}
}

func TestEnhancedChmodWorldReadableBlocked(t *testing.T) {
	// Enhanced: the identical mistyped chmod leaks nothing.
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(alice, "/scratch/f", []byte("safe"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(alice, "/scratch/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(bob, "/scratch/f"); !errors.Is(err, ErrPermission) {
		t.Errorf("enhanced world-read err = %v, want ErrPermission", err)
	}
}

// TestGroupClassDeniesBeforeOther: POSIX picks one class. A caller in
// the file's owning group is judged by the group bits alone, so a
// 0o604 file denies its group's members the read it grants strangers.
func TestGroupClassDeniesBeforeOther(t *testing.T) {
	fs, _, creds, proj := newWorld(t, Policy{})
	alice, bob, carol := Ctx(creds["alice"]), Ctx(creds["bob"]), Ctx(creds["carol"])
	const path = "/shared.dat"
	if err := fs.WriteFile(Ctx(ids.RootCred()), path, []byte("x"), 0o604); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(Ctx(ids.RootCred()), path, alice.Cred.UID, proj); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(bob, path); !errors.Is(err, ErrPermission) {
		t.Errorf("bob, in the owning group, reads a 0o604 file: err = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadFile(carol, path); err != nil {
		t.Errorf("carol, outside every class but other, cannot read a 0o604 file: %v", err)
	}
}

func TestACLGroupGrantRequiresMembership(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice, carol := Ctx(creds["alice"]), Ctx(creds["carol"])
	// Alice ∈ proj: group ACL grant allowed; bob (member) then reads.
	if err := fs.WriteFile(alice, "/scratch/a", []byte("team"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclGroup(alice, "/scratch/a", projGID, 0o4); err != nil {
		t.Fatalf("member group grant: %v", err)
	}
	if _, err := fs.ReadFile(Ctx(creds["bob"]), "/scratch/a"); err != nil {
		t.Errorf("acl-granted member read: %v", err)
	}
	// Carol ∉ proj: her grant to proj is rejected.
	if err := fs.WriteFile(carol, "/scratch/c", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclGroup(carol, "/scratch/c", projGID, 0o4); !errors.Is(err, ErrACLDenied) {
		t.Errorf("non-member group grant err = %v, want ErrACLDenied", err)
	}
}

func TestACLUserGrantRequiresSharedProjectGroup(t *testing.T) {
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice := Ctx(creds["alice"])
	if err := fs.WriteFile(alice, "/scratch/f", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	// alice and bob share proj: user grant allowed.
	if err := fs.SetfaclUser(alice, "/scratch/f", creds["bob"].UID, 0o4); err != nil {
		t.Errorf("shared-group user grant: %v", err)
	}
	if _, err := fs.ReadFile(Ctx(creds["bob"]), "/scratch/f"); err != nil {
		t.Errorf("user-acl read: %v", err)
	}
	// alice and carol share nothing: grant rejected.
	if err := fs.SetfaclUser(alice, "/scratch/f", creds["carol"].UID, 0o4); !errors.Is(err, ErrACLDenied) {
		t.Errorf("stranger user grant err = %v, want ErrACLDenied", err)
	}
}

func TestACLWithoutRestrictBaseline(t *testing.T) {
	// Baseline: ACLRestrict off lets users grant to anyone — the leak
	// the restriction exists to stop.
	fs, _, creds, _ := newWorld(t, Policy{})
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice := Ctx(creds["alice"])
	if err := fs.WriteFile(alice, "/scratch/f", []byte("leak"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclUser(alice, "/scratch/f", creds["carol"].UID, 0o4); err != nil {
		t.Fatalf("baseline user grant: %v", err)
	}
	if got, err := fs.ReadFile(Ctx(creds["carol"]), "/scratch/f"); err != nil || string(got) != "leak" {
		t.Errorf("baseline acl read = %q, %v", got, err)
	}
}

func TestACLOnlyOwnerModifies(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice, bob := Ctx(creds["alice"]), Ctx(creds["bob"])
	if err := fs.WriteFile(alice, "/scratch/f", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclGroup(bob, "/scratch/f", projGID, 0o7); !errors.Is(err, ErrPermission) {
		t.Errorf("non-owner setfacl err = %v, want ErrPermission", err)
	}
	if err := fs.SetfaclUser(bob, "/scratch/f", bob.Cred.UID, 0o7); !errors.Is(err, ErrPermission) {
		t.Errorf("non-owner user setfacl err = %v, want ErrPermission", err)
	}
}

func TestACLReplaceGetfaclRemove(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, enhancedPolicy())
	alice := Ctx(creds["alice"])
	if err := fs.WriteFile(alice, "/home/alice/f", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclGroup(alice, "/home/alice/f", projGID, 0o4); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetfaclGroup(alice, "/home/alice/f", projGID, 0o6); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.stat(alice, "/home/alice/f")
	if err != nil {
		t.Fatal(err)
	}
	if acl := fi.ACL; len(acl.Groups) != 1 || acl.Groups[0].Bits != 0o6 {
		t.Errorf("acl after replace = %+v", acl)
	}
}

func TestACLEntryLookupHelpers(t *testing.T) {
	a := &ACL{
		Users:  []ACLEntryUser{{UID: 5, Bits: 0o4}},
		Groups: []ACLEntryGroup{{GID: 9, Bits: 0o6}},
	}
	if b, ok := a.userEntry(5); !ok || b != 0o4 {
		t.Errorf("userEntry = %o %v", b, ok)
	}
	if _, ok := a.userEntry(6); ok {
		t.Errorf("userEntry(6) found")
	}
	if b, ok := a.groupEntry(9); !ok || b != 0o6 {
		t.Errorf("groupEntry = %o %v", b, ok)
	}
	if _, ok := a.groupEntry(10); ok {
		t.Errorf("groupEntry(10) found")
	}
	if (*ACL)(nil).Clone() != nil {
		t.Errorf("nil Clone != nil")
	}
}

func TestSmaskRelaxLifecycle(t *testing.T) {
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/datasets"); err != nil {
		t.Fatal(err)
	}
	support := creds["carol"] // carol is support staff today
	tool := NewSmaskRelax(0o002, support.UID)
	base := Context{Cred: support, Umask: 0}

	// Without relax, world-read cannot be set.
	if err := fs.WriteFile(base, "/datasets/model.bin", []byte("w"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.stat(base, "/datasets/model.bin")
	if fi.Mode&0o004 != 0 {
		t.Fatalf("smask failed to mask: %o", fi.Mode)
	}

	// Inside an smask_relax session, o+r sticks (002 only masks o+w).
	relaxed, err := tool.Enter(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(relaxed, "/datasets/model.bin", 0o644); err != nil {
		t.Fatal(err)
	}
	fi, _ = fs.stat(base, "/datasets/model.bin")
	if fi.Mode != 0o644 {
		t.Errorf("relaxed chmod mode = %o, want 644", fi.Mode)
	}
	// Any user can now read the dataset.
	if _, err := fs.ReadFile(Ctx(creds["bob"]), "/datasets/model.bin"); err != nil {
		t.Errorf("published dataset read: %v", err)
	}

	// After Leave, the strict mask is back.
	left := tool.Leave(relaxed)
	if err := fs.Chmod(left, "/datasets/model.bin", 0o646); err != nil {
		t.Fatal(err)
	}
	fi, _ = fs.stat(base, "/datasets/model.bin")
	if fi.Mode&0o007 != 0 {
		t.Errorf("post-leave chmod kept world bits: %o", fi.Mode)
	}

	// Non-whitelisted users are refused.
	if _, err := tool.Enter(Ctx(creds["alice"])); !errors.Is(err, ErrNotWhitelisted) {
		t.Errorf("non-whitelisted Enter err = %v, want ErrNotWhitelisted", err)
	}
}

func TestSetgidStrippedOnForeignGroupChmod(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, Policy{})
	root := Context{Cred: ids.RootCred()}
	if err := fs.WriteFile(root, "/f", nil, 0o2755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown(root, "/f", creds["carol"].UID, projGID); err != nil {
		t.Fatal(err)
	}
	// Carol owns the file but is not in proj: her chmod drops setgid.
	if err := fs.Chmod(Ctx(creds["carol"]), "/f", 0o2755); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.stat(root, "/f")
	if fi.Mode&ModeSetgid != 0 {
		t.Errorf("setgid survived foreign-group chmod: %o", fi.Mode)
	}
}

// Property: under the enhanced policy, no sequence of a single user's
// create/chmod calls can ever produce a file with world bits set.
func TestQuickSmaskNoWorldBitsEver(t *testing.T) {
	fs, _, creds, _ := newWorld(t, enhancedPolicy())
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice := Context{Cred: creds["alice"], Umask: 0}
	i := 0
	f := func(createMode, chmodMode uint16) bool {
		i++
		path := "/scratch/q" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if err := fs.WriteFile(alice, path, nil, uint32(createMode)&permMask); err != nil {
			return false
		}
		if err := fs.Chmod(alice, path, uint32(chmodMode)&permMask); err != nil {
			return false
		}
		fi, err := fs.stat(alice, path)
		if err != nil {
			return false
		}
		return fi.Mode&0o007 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: permission evaluation is monotone in the request — if a
// cred can rw, it can r and can w.
func TestQuickAccessMonotone(t *testing.T) {
	fs, _, creds, projGID := newWorld(t, Policy{})
	if err := fs.CreateTmp("/scratch"); err != nil {
		t.Fatal(err)
	}
	alice := Ctx(creds["alice"])
	f := func(mode uint16, who uint8) bool {
		path := "/scratch/m"
		if err := fs.WriteFile(Ctx(ids.RootCred()), path, nil, 0o644); err != nil {
			return false
		}
		if err := fs.Chmod(Ctx(ids.RootCred()), path, uint32(mode)&0o777); err != nil {
			return false
		}
		observers := []Context{alice, Ctx(creds["bob"]), Ctx(creds["carol"])}
		obs := observers[int(who)%len(observers)]
		for _, pair := range [][2]uint32{{6, 4}, {6, 2}, {7, 1}, {5, 4}} {
			if fs.access(obs, path, pair[0]) && !fs.access(obs, path, pair[1]) {
				return false
			}
		}
		_ = projGID
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeFile.String() != "file" || TypeDir.String() != "dir" || TypeSocket.String() != "socket" || FileType(9).String() != "?" {
		t.Errorf("FileType.String broken")
	}
}
