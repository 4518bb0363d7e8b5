package ids

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// testNames returns n distinct login names, built up front so loops
// over them measure the registry rather than formatting.
func testNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

func registerAll(tb testing.TB, r *Registry, names []string) []UID {
	tb.Helper()
	uids := make([]UID, len(names))
	for i, name := range names {
		uid, err := r.Register(name)
		if err != nil {
			tb.Fatal(err)
		}
		uids[i] = uid
	}
	return uids
}

// Reset leaves the index as inserting every descriptor up to kept in
// order would, the dropped trial users included, while lookups report
// those users absent. The first registration that does not replay
// rebuilds it as inserting only the live descriptors would. The cases
// cover a trial that added a few users and one that grew the table
// many times over.
func TestNameIndexReset(t *testing.T) {
	for _, tc := range []struct {
		name            string
		pristine, trial int
	}{
		{"few-trial-users", 1000, 10},
		{"no-trial-users", 300, 0},
		{"bulk-trial", 10, 5000},
		{"bulk-trial-from-empty-mark", 0, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			pristine := registerAll(t, r, testNames("p", tc.pristine))
			r.MarkPristine()
			trial := testNames("t", tc.trial)
			registerAll(t, r, trial)
			r.Reset()

			layoutOf := func(descs []userDesc) []uint32 {
				ref := nameIndex{seed: r.names.seed, slots: make([]uint32, len(r.names.slots))}
				ref.fill(descs)
				return ref.slots
			}
			if want := tc.pristine + tc.trial; r.names.kept != want || len(r.descs) != tc.pristine {
				t.Fatalf("after Reset: %d live descriptors, %d kept; want %d, %d", len(r.descs), r.names.kept, tc.pristine, want)
			}
			if !slices.Equal(r.names.slots, layoutOf(r.descs[:r.names.kept])) {
				t.Error("index layout after Reset differs from inserting the kept descriptors in order")
			}
			check := func(when string) {
				t.Helper()
				for i, name := range testNames("p", tc.pristine) {
					if u, err := r.userByName(name); err != nil || u.UID != pristine[i] {
						t.Fatalf("pristine %q %s = %v, %v; want uid %d", name, when, u, err, pristine[i])
					}
				}
				for _, name := range trial {
					if _, err := r.userByName(name); !errors.Is(err, ErrNoSuchUser) {
						t.Fatalf("trial user %q %s: err %v, want ErrNoSuchUser", name, when, err)
					}
				}
			}
			check("after Reset")

			if _, err := r.Register("diverge"); err != nil {
				t.Fatal(err)
			}
			if r.names.kept != len(r.descs) {
				t.Errorf("after a diverging registration: %d kept, want the %d live descriptors", r.names.kept, len(r.descs))
			}
			if !slices.Equal(r.names.slots, layoutOf(r.descs)) {
				t.Error("index layout after a diverging registration differs from inserting the live descriptors in order")
			}
			check("after a diverging registration")
		})
	}
}

// The user and group namespaces stay one: a name taken by root, a
// user (and so their private group) or a project group cannot be
// taken again by either kind, and Reset frees trial names for both.
func TestDuplicateNamesAcrossNamespaces(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddProjectGroup("proj", Root); err != nil {
		t.Fatal(err)
	}
	r.MarkPristine()
	if _, err := r.Register("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddProjectGroup("trial-proj", Root); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op, name, want string
	}{
		{"register", "root", `ids: name already exists: user "root"`},
		{"register", "alice", `ids: name already exists: user "alice"`},
		{"register", "bob", `ids: name already exists: user "bob"`},
		{"register", "proj", `ids: name already exists: group "proj"`},
		{"register", "trial-proj", `ids: name already exists: group "trial-proj"`},
		{"group", "root", `ids: name already exists: group "root"`},
		{"group", "alice", `ids: name already exists: group "alice"`},
		{"group", "bob", `ids: name already exists: group "bob"`},
		{"group", "proj", `ids: name already exists: group "proj"`},
	} {
		var err error
		if tc.op == "register" {
			_, err = r.Register(tc.name)
		} else {
			_, err = r.AddProjectGroup(tc.name, Root)
		}
		if !errors.Is(err, ErrExists) || err.Error() != tc.want {
			t.Errorf("%s %q: err %v, want %s", tc.op, tc.name, err, tc.want)
		}
	}
	r.Reset()
	// The trial's user and group are gone; each name is free for the
	// other kind now.
	if _, err := r.AddProjectGroup("bob", Root); err != nil {
		t.Errorf("project group named after a reset user: %v", err)
	}
	if _, err := r.Register("trial-proj"); err != nil {
		t.Errorf("user named after a reset project group: %v", err)
	}
	if _, err := r.Register("bob"); !errors.Is(err, ErrExists) {
		t.Errorf("user named after the new project group: err %v, want ErrExists", err)
	}
	if _, err := r.AddProjectGroup("trial-proj", Root); !errors.Is(err, ErrExists) {
		t.Errorf("project group named after the new user: err %v, want ErrExists", err)
	}
}

// The index doubles as it fills, stays a power of two at most half
// full, and resolves every name to the UID Register returned, and
// back, across the resizes; Users() lists root and every user.
func TestNameIndexGrowth(t *testing.T) {
	r := NewRegistry()
	names := testNames("g", 5000)
	sizes := []int{len(r.names.slots)}
	for i, name := range names {
		uid, err := r.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := uidBase + UID(i); uid != want {
			t.Fatalf("%q got uid %d, want %d", name, uid, want)
		}
		if n := len(r.names.slots); n != sizes[len(sizes)-1] {
			sizes = append(sizes, n)
		}
		if n := len(r.names.slots); n&(n-1) != 0 || 2*len(r.descs) > n {
			t.Fatalf("after %d users: %d slots, want a power of two at least twice the users", i+1, n)
		}
	}
	if len(sizes) < 8 {
		t.Fatalf("index sizes %v: want several resizes", sizes)
	}
	for i, name := range names {
		if u, err := r.userByName(name); err != nil || u.UID != uidBase+UID(i) {
			t.Fatalf("userByName(%q) = %v, %v", name, u, err)
		}
		if u, err := r.User(uidBase + UID(i)); err != nil || u.Name != name {
			t.Fatalf("User(%d) = %v, %v; want %q", uidBase+UID(i), u, err, name)
		}
	}
	if _, err := r.userByName("g5000"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("absent name: err %v, want ErrNoSuchUser", err)
	}
	if got, want := len(r.allUsers()), 1+len(names); got != want {
		t.Errorf("Users() has %d entries, want %d", got, want)
	}
}

// Names whose hashes agree on the home slot and the tag force a probe
// past a slot whose tag matches, so the name compare must decide. Both
// registered names resolve to their own UIDs, a third with the same
// home slot and tag stays unknown, and the layout after Reset and
// re-registration is the one inserting the descriptors in order gives.
func TestNameIndexTagCollision(t *testing.T) {
	r := NewRegistry()
	r.MarkPristine()
	mask := uint64(len(r.names.slots) - 1)
	buckets := make(map[uint64][]string)
	var same []string
	for i := 0; same == nil; i++ {
		name := fmt.Sprintf("c%d", i)
		h := r.names.hash(name)
		key := h&mask | uint64(hashTag(h))<<32
		buckets[key] = append(buckets[key], name)
		if len(buckets[key]) == 3 {
			same = buckets[key]
		}
	}
	uids := registerAll(t, r, same[:2])
	if len(r.names.slots) != int(mask+1) {
		t.Fatalf("index grew to %d slots; the names no longer share a home slot", len(r.names.slots))
	}
	home := r.names.hash(same[0]) & mask
	first, second := r.names.slots[home], r.names.slots[(home+1)&mask]
	if slotTag(first) != slotTag(second) || slotPos(first) != 1 || slotPos(second) != 2 {
		t.Fatalf("slots %#x, %#x: want positions 1 and 2 under one tag", first, second)
	}
	check := func() {
		t.Helper()
		for i, name := range same[:2] {
			if u, err := r.userByName(name); err != nil || u.UID != uids[i] {
				t.Errorf("userByName(%q) = %v, %v; want uid %d", name, u, err, uids[i])
			}
			if _, err := r.Register(name); !errors.Is(err, ErrExists) {
				t.Errorf("re-register %q: err %v, want ErrExists", name, err)
			}
		}
		if _, err := r.userByName(same[2]); !errors.Is(err, ErrNoSuchUser) {
			t.Errorf("userByName(%q) of an unregistered colliding name: err %v, want ErrNoSuchUser", same[2], err)
		}
	}
	check()
	r.Reset()
	if got := registerAll(t, r, same[:2]); !slices.Equal(got, uids) {
		t.Fatalf("re-registered uids %v, want %v", got, uids)
	}
	check()
	ref := nameIndex{seed: r.names.seed, slots: make([]uint32, len(r.names.slots))}
	ref.fill(r.descs)
	if !slices.Equal(r.names.slots, ref.slots) {
		t.Errorf("layout after Reset and re-registration %#x, want %#x", r.names.slots, ref.slots)
	}
}

// A slot holds positions 1 through 2^24-1 under any tag and is never
// the empty marker; Register refuses the user past the 24-bit cap
// before touching any table.
func TestNameIndexSlotBounds(t *testing.T) {
	for _, pos := range []int{1, posMask} {
		for _, tag := range []uint8{0, 255} {
			v := packSlot(pos, tag)
			if v == 0 || slotPos(v) != pos || slotTag(v) != tag {
				t.Errorf("packSlot(%d, %d) = %#x: position %d, tag %d", pos, tag, v, slotPos(v), slotTag(v))
			}
		}
	}
	if maxUsers > posMask {
		t.Fatalf("maxUsers %d exceeds the largest slot position %d", maxUsers, posMask)
	}

	r := NewRegistry()
	registerAll(t, r, []string{"a"})
	// The UID counter is where a registry that held maxUsers users
	// would stand; building one would take 16M descriptors.
	r.nextUID = uidBase + maxUsers
	slots, gen := slices.Clone(r.names.slots), r.gen
	_, err := r.Register("b")
	if !errors.Is(err, ErrRegistryFull) || !strings.Contains(err.Error(), "16777214") {
		t.Fatalf("Register past the cap: err %v, want ErrRegistryFull naming 16777214", err)
	}
	if len(r.descs) != 1 || r.gen != gen || !slices.Equal(r.names.slots, slots) {
		t.Error("a refused Register changed the registry")
	}
	if _, err := r.Register("a"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate at the cap: err %v, want ErrExists", err)
	}
}

// Once the descriptor table and the index have grown, a trial cycle —
// Reset, then registering the same population — allocates nothing, and
// it replays: every registration reuses a kept descriptor, so the kept
// count never drops, and the index slots stay byte for byte what they
// were before the Reset. A fallback to probing rebuilds the table on
// its first registration and fails the first check.
func TestResetReregisterAllocFree(t *testing.T) {
	r := NewRegistry()
	registerAll(t, r, testNames("staff", 100))
	r.MarkPristine()
	for _, n := range []int{3000, 10} {
		names := testNames("u", n)
		registerAll(t, r, names)
		before, kept := slices.Clone(r.names.slots), r.names.kept
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset()
			for _, name := range names {
				if _, err := r.Register(name); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d users: Reset + re-register allocates %.1f times per cycle, want 0", n, allocs)
		}
		r.Reset()
		for _, name := range names {
			if _, err := r.Register(name); err != nil {
				t.Fatal(err)
			}
			if r.names.kept != kept {
				t.Fatalf("%d users: registering %q after Reset dropped the kept descriptors (%d kept, want %d)", n, name, r.names.kept, kept)
			}
		}
		if !slices.Equal(r.names.slots, before) {
			t.Errorf("%d users: index slots changed across Reset + re-register", n)
		}
		r.Reset()
	}
}

// BenchmarkRegistryRegister registers n names into a Reset registry,
// the bulk-provisioning step of an XXL trial; the Reset between
// iterations is not timed. The 100k and 1M rows register the names the
// previous iteration registered, in the same order, as every pooled
// trial does, so they time the replay path: no hash and no probe, of
// the name index or of the group namespace. The 1M-group row creates a
// project group after each Reset, as a trial that adds one does, so
// every replay also runs the "root" and group-namespace checks. The
// 1M-diverge row alternates two disjoint sets of 1M names, so every
// iteration pays the index rebuild on its first name and one probe
// and insert per name, the cost of a trial whose names differ from the
// last. At 1M the index is 8 MB, and each probe pays the random slot
// load.
func BenchmarkRegistryRegister(b *testing.B) {
	for _, bc := range []struct {
		name    string
		n       int
		diverge bool
		group   bool
	}{
		{"100k", 100000, false, false},
		{"1M", 1000000, false, false},
		{"1M-group", 1000000, false, true},
		{"1M-diverge", 1000000, true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sets := [][]string{testNames("u", bc.n)}
			if bc.diverge {
				sets = append(sets, testNames("v", bc.n))
			}
			r := NewRegistry()
			r.MarkPristine()
			registerAll(b, r, sets[0]) // grow the tables once, as a pooled cluster has
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r.Reset()
				if bc.group {
					if _, err := r.AddProjectGroup("proj", Root); err != nil {
						b.Fatal(err)
					}
				}
				names := sets[(i+1)%len(sets)]
				b.StartTimer()
				for _, name := range names {
					if _, err := r.Register(name); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/name")
		})
	}
}

// BenchmarkRegistryResetAfterRegister times Reset after a trial's
// registrations. Reset costs a small fraction of the registrations it
// drops, so a stopped timer around them would make the runner repeat a
// great deal of untimed work: the loop times the whole cycle and
// reports Reset's own share as reset-ns/op.
func BenchmarkRegistryResetAfterRegister(b *testing.B) {
	r := NewRegistry()
	registerAll(b, r, testNames("p", 64))
	r.MarkPristine()
	names := testNames("t", 100000)
	registerAll(b, r, names)
	r.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	var reset time.Duration
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := r.Register(name); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		r.Reset()
		reset += time.Since(t0)
	}
	b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N), "reset-ns/op")
}
