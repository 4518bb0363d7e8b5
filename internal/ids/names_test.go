package ids

import (
	"errors"
	"fmt"
	"slices"
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

// Reset must leave the index exactly as if only the pristine users
// had ever been inserted, whether the trial added a few users or grew
// the table many times over.
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
			before := slices.Clone(r.names.slots)
			registerAll(t, r, testNames("t", tc.trial))
			grew := len(r.names.slots) != len(before)
			r.Reset()

			if !grew && !slices.Equal(r.names.slots, before) {
				t.Error("index layout after Reset differs from the layout at the mark")
			}
			ref := nameIndex{seed: r.names.seed, slots: make([]uint32, len(r.names.slots))}
			ref.fill(r.descs)
			if !slices.Equal(r.names.slots, ref.slots) {
				t.Error("index layout after Reset differs from inserting the pristine users in order")
			}
			for i, name := range testNames("p", tc.pristine) {
				if u, err := r.UserByName(name); err != nil || u.UID != pristine[i] {
					t.Fatalf("pristine %q after Reset = %v, %v; want uid %d", name, u, err, pristine[i])
				}
			}
			for _, name := range testNames("t", tc.trial) {
				if _, err := r.UserByName(name); !errors.Is(err, ErrNoSuchUser) {
					t.Fatalf("trial user %q after Reset: err %v, want ErrNoSuchUser", name, err)
				}
			}
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
// full, and resolves every name across the resizes.
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
		if u, err := r.UserByName(name); err != nil || u.UID != uidBase+UID(i) {
			t.Fatalf("UserByName(%q) = %v, %v", name, u, err)
		}
	}
	if _, err := r.UserByName("g5000"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("absent name: err %v, want ErrNoSuchUser", err)
	}
}

// Once the descriptor table and the index have grown, a trial cycle —
// Reset, then registering the same population — allocates nothing.
func TestResetReregisterAllocFree(t *testing.T) {
	r := NewRegistry()
	registerAll(t, r, testNames("staff", 100))
	r.MarkPristine()
	for _, n := range []int{3000, 10} {
		names := testNames("u", n)
		registerAll(t, r, names)
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
	}
}

// BenchmarkRegistryRegister registers n names into a Reset registry,
// the bulk-provisioning step of an XXL trial; the Reset between
// iterations is not timed.
func BenchmarkRegistryRegister(b *testing.B) {
	const n = 100000
	names := testNames("u", n)
	r := NewRegistry()
	r.MarkPristine()
	registerAll(b, r, names) // grow the tables once, as a pooled cluster has
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.Reset()
		b.StartTimer()
		for _, name := range names {
			if _, err := r.Register(name); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/name")
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
