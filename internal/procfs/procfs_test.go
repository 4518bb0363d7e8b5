package procfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/simos"
)

const supportGID ids.GID = 500

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

// newTable builds a table with 3 daemons? No — raw table, we control contents.
func newPopulatedTable(t *testing.T) (*simos.Table, map[ids.UID][]ids.PID) {
	t.Helper()
	tb := simos.NewTable(nil)
	owned := make(map[ids.UID][]ids.PID)
	tb.Spawn(ids.RootCred(), 0, "systemd")
	for _, uid := range []ids.UID{1000, 2000} {
		for i := 0; i < 3; i++ {
			p := tb.Spawn(cred(uid), 0, "work", "--secret", "token-of-"+string(rune('a'+int(uid/1000))))
			owned[uid] = append(owned[uid], p.PID)
		}
	}
	return tb, owned
}

func TestHidepid0EverybodySeesEverything(t *testing.T) {
	tb, _ := newPopulatedTable(t)
	m := NewMount(tb, HidePIDOff, ids.NoGID)
	got := m.List(cred(1000))
	if len(got) != tb.Len() {
		t.Errorf("hidepid=0 list len = %d, want %d", len(got), tb.Len())
	}
	if len(m.Readable(cred(1000))) != tb.Len() {
		t.Errorf("hidepid=0 readable should include all")
	}
}

func TestHidepid1DirsVisibleContentsHidden(t *testing.T) {
	tb, owned := newPopulatedTable(t)
	m := NewMount(tb, HidePIDNoRead, ids.NoGID)
	alice := cred(1000)
	// Listing still shows everything.
	if len(m.List(alice)) != tb.Len() {
		t.Errorf("hidepid=1 hid dirs from listing")
	}
	// But foreign cmdline is EPERM, not ENOENT.
	foreign := owned[2000][0]
	if _, err := m.ReadCmdline(alice, foreign); !errors.Is(err, ErrHidden) {
		t.Errorf("foreign cmdline err = %v, want ErrHidden", err)
	}
	// Own cmdline still reads.
	if s, err := m.ReadCmdline(alice, owned[1000][0]); err != nil || s == "" {
		t.Errorf("own cmdline: %q %v", s, err)
	}
	// Foreign entries appear in List (the dirs are listed) as redacted
	// stubs: their Comm, but no cmdline or credential.
	for _, lp := range m.List(alice) {
		if lp.Cred.UID == 1000 {
			continue // own entries are full
		}
		if len(lp.Cmdline) != 0 || lp.Cred.UID != 0 {
			t.Errorf("hidepid=1 List leaked details of pid %d: %+v", lp.PID, lp)
		}
		if lp.Comm == "" {
			t.Errorf("hidepid=1 List stub of pid %d dropped Comm", lp.PID)
		}
	}
}

func TestHidepid2ForeignInvisible(t *testing.T) {
	tb, owned := newPopulatedTable(t)
	m := NewMount(tb, HidePIDInvis, ids.NoGID)
	alice := cred(1000)
	got := m.List(alice)
	if len(got) != 3 {
		t.Fatalf("hidepid=2 list len = %d, want only own 3", len(got))
	}
	for _, p := range got {
		if p.Cred.UID != 1000 {
			t.Errorf("hidepid=2 leaked pid %d of uid %d", p.PID, p.Cred.UID)
		}
	}
	// Foreign pid looks nonexistent (ENOENT, not EPERM) — that
	// distinction is what kills pid-probing side channels.
	foreign := owned[2000][0]
	if _, err := m.ReadCmdline(alice, foreign); !errors.Is(err, ErrNotFound) {
		t.Errorf("cmdline foreign err = %v, want ErrNotFound", err)
	}
}

func TestRootSeesAllAtEveryLevel(t *testing.T) {
	tb, _ := newPopulatedTable(t)
	for _, h := range []HidePID{HidePIDOff, HidePIDNoRead, HidePIDInvis} {
		m := NewMount(tb, h, ids.NoGID)
		if len(m.Readable(ids.RootCred())) != tb.Len() {
			t.Errorf("%v: root readable < all", h)
		}
	}
}

func TestExemptGIDBypasses(t *testing.T) {
	tb, owned := newPopulatedTable(t)
	m := NewMount(tb, HidePIDInvis, supportGID)
	support := cred(3000)
	support.Groups = append(support.Groups, supportGID)
	if len(m.List(support)) != tb.Len() {
		t.Errorf("exempt gid holder cannot list all")
	}
	if _, err := m.ReadCmdline(support, owned[2000][0]); err != nil {
		t.Errorf("exempt gid holder cmdline: %v", err)
	}
	// Without the gid, same user sees nothing foreign.
	plain := cred(3000)
	if len(m.List(plain)) != 0 {
		t.Errorf("non-exempt observer with no processes saw %d", len(m.List(plain)))
	}
}

func TestSeepidElevateAndDrop(t *testing.T) {
	s := NewSeepid(supportGID, 3000)
	facilitator := cred(3000)
	elevated, err := s.Elevate(facilitator)
	if err != nil {
		t.Fatalf("Elevate: %v", err)
	}
	if !elevated.InGroup(supportGID) {
		t.Errorf("Elevate did not add exempt gid")
	}
	if facilitator.InGroup(supportGID) {
		t.Errorf("Elevate mutated the original credential")
	}
	dropped := s.Drop(elevated)
	if dropped.InGroup(supportGID) {
		t.Errorf("Drop left exempt gid")
	}
	// Non-whitelisted user is refused.
	if _, err := s.Elevate(cred(1000)); !errors.Is(err, ErrNotExempt) {
		t.Errorf("non-whitelisted Elevate err = %v, want ErrNotExempt", err)
	}
}

func TestSeepidEndToEnd(t *testing.T) {
	tb, _ := newPopulatedTable(t)
	m := NewMount(tb, HidePIDInvis, supportGID)
	s := NewSeepid(supportGID, 3000)
	facilitator := cred(3000)
	before := len(m.List(facilitator))
	elevated, err := s.Elevate(facilitator)
	if err != nil {
		t.Fatal(err)
	}
	after := len(m.List(elevated))
	if before != 0 || after != tb.Len() {
		t.Errorf("seepid session: before=%d after=%d want 0 and %d", before, after, tb.Len())
	}
}

// Property: at hidepid=2, for any observer uid, List returns exactly
// the observer's own processes, and List(hidepid=2) ⊆ List(hidepid=1)
// = List(hidepid=0).
func TestQuickHidepidMonotonic(t *testing.T) {
	f := func(nA, nB uint8, observerIsA bool) bool {
		tb := simos.NewTable(nil)
		tb.Spawn(ids.RootCred(), 0, "systemd")
		a, b := cred(1000), cred(2000)
		for i := 0; i < int(nA%8); i++ {
			tb.Spawn(a, 0, "pa")
		}
		for i := 0; i < int(nB%8); i++ {
			tb.Spawn(b, 0, "pb")
		}
		obs := a
		own := int(nA % 8)
		if !observerIsA {
			obs = b
			own = int(nB % 8)
		}
		l0 := len(NewMount(tb, HidePIDOff, ids.NoGID).List(obs))
		l1 := len(NewMount(tb, HidePIDNoRead, ids.NoGID).List(obs))
		l2 := len(NewMount(tb, HidePIDInvis, ids.NoGID).List(obs))
		return l0 == tb.Len() && l1 == l0 && l2 == own
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Readable is always a subset of List for any mode.
func TestQuickReadableSubsetOfList(t *testing.T) {
	f := func(mode uint8) bool {
		tb := simos.NewTable(nil)
		tb.Spawn(ids.RootCred(), 0, "d")
		tb.Spawn(cred(1000), 0, "a")
		tb.Spawn(cred(2000), 0, "b")
		m := NewMount(tb, HidePID(mode%3), ids.NoGID)
		obs := cred(1000)
		listed := make(map[ids.PID]bool)
		for _, p := range m.List(obs) {
			listed[p.PID] = true
		}
		for _, p := range m.Readable(obs) {
			if !listed[p.PID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHidePIDString(t *testing.T) {
	// Symbolic names: profile diffs and the E16 ablation table print
	// these instead of raw mount-option ints.
	for h, want := range map[HidePID]string{
		HidePIDOff:    "off",
		HidePIDNoRead: "noread",
		HidePIDInvis:  "invisible",
		HidePID(7):    "hidepid=7",
	} {
		if got := h.String(); got != want {
			t.Errorf("HidePID(%d).String() = %q, want %q", int(h), got, want)
		}
	}
}

// TestListingsShareTableEntries checks the listing contract: List and
// Readable return the table's own read-only entries, the pointers
// Lookup returns, and List's visible-but-unreadable rows are redacted
// stubs, never the entry itself.
func TestListingsShareTableEntries(t *testing.T) {
	tb := simos.NewNode("c1", simos.Compute, 8, 1<<30, nil).Procs
	for i, uid := range []ids.UID{1000, 2000} {
		tb.SpawnJob(cred(uid), 1+i, 1<<20, "slurmstepd", "a.out")
	}
	for _, hide := range []HidePID{HidePIDOff, HidePIDNoRead, HidePIDInvis} {
		m := NewMount(tb, hide, supportGID)
		obs := cred(1000)
		for _, p := range m.Readable(obs) {
			if e, _ := tb.Lookup(p.PID); e != p {
				t.Errorf("hidepid=%d: Readable's pid %d is not the table's entry", hide, p.PID)
			}
		}
		for _, p := range m.List(obs) {
			e, _ := tb.Lookup(p.PID)
			switch stub := e.Cred.UID != obs.UID && hide == HidePIDNoRead; {
			case stub && (e == p || p.Cmdline != nil):
				t.Errorf("hidepid=%d: List's foreign pid %d is not a redacted stub", hide, p.PID)
			case !stub && e != p:
				t.Errorf("hidepid=%d: List's pid %d is not the table's entry", hide, p.PID)
			}
		}
	}
}
