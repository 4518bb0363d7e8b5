package ubf

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// world builds a registry (alice+bob in proj, carol outside), a
// two-host network with the UBF installed on both hosts, and login
// credentials.
func world(t *testing.T, cfg Config) (*netsim.Network, *netsim.Host, *netsim.Host, map[string]ids.Credential, ids.GID, *Daemon) {
	t.Helper()
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	bob, _ := reg.AddUser("bob")
	carol, _ := reg.AddUser("carol")
	proj, err := reg.AddProjectGroup("proj", alice.UID)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AddToGroup(alice.UID, proj.GID, bob.UID); err != nil {
		t.Fatal(err)
	}
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("node1"), n.AddHost("node2")
	d := New(cfg)
	d.InstallOn(h1)
	d.InstallOn(h2)
	creds := map[string]ids.Credential{}
	for _, u := range []*ids.User{alice, bob, carol} {
		c, err := reg.LoginCredential(u.UID)
		if err != nil {
			t.Fatal(err)
		}
		creds[u.Name] = c
	}
	// Register registry-backed group switch for listeners.
	creds["alice-proj"], err = reg.SwitchGroup(creds["alice"], proj.GID)
	if err != nil {
		t.Fatal(err)
	}
	return n, h1, h2, creds, proj.GID, d
}

func TestSameUserAllowed(t *testing.T) {
	_, h1, h2, creds, _, d := world(t, Config{})
	if _, err := h2.Listen(creds["alice"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	c, err := h1.Dial(creds["alice"], netsim.TCP, "node2", 5000)
	if err != nil {
		t.Fatalf("same-user dial: %v", err)
	}
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if d.Allowed.Load() != 1 || d.Denied.Load() != 0 {
		t.Errorf("allowed=%d denied=%d", d.Allowed.Load(), d.Denied.Load())
	}
}

func TestDifferentUserDropped(t *testing.T) {
	_, h1, h2, creds, _, d := world(t, Config{})
	if _, err := h2.Listen(creds["alice"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	// Carol shares no group with alice's listener (egid = alice's UPG).
	if _, err := h1.Dial(creds["carol"], netsim.TCP, "node2", 5000); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("stranger dial err = %v, want ErrConnDropped", err)
	}
	if d.Denied.Load() != 1 {
		t.Errorf("denied = %d", d.Denied.Load())
	}
}

func TestGroupOptInViaNewgrp(t *testing.T) {
	_, h1, h2, creds, _, _ := world(t, Config{})
	// Default listener egid = alice's private group: bob is denied
	// even though they share proj — sharing must be *opt-in*.
	if _, err := h2.Listen(creds["alice"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(creds["bob"], netsim.TCP, "node2", 5000); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("pre-newgrp dial err = %v, want drop", err)
	}
	// Alice restarts the service under `sg proj` (egid = proj): now
	// bob, a proj member, is allowed.
	if _, err := h2.Listen(creds["alice-proj"], netsim.TCP, 5001); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(creds["bob"], netsim.TCP, "node2", 5001); err != nil {
		t.Errorf("post-newgrp member dial: %v", err)
	}
	// Carol is still denied.
	if _, err := h1.Dial(creds["carol"], netsim.TCP, "node2", 5001); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("non-member dial err = %v, want drop", err)
	}
}

func TestUDPCovered(t *testing.T) {
	_, h1, h2, creds, _, _ := world(t, Config{})
	if _, err := h2.Listen(creds["alice"], netsim.UDP, 6000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(creds["carol"], netsim.UDP, "node2", 6000); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("udp stranger err = %v, want drop", err)
	}
	if _, err := h1.Dial(creds["alice"], netsim.UDP, "node2", 6000); err != nil {
		t.Errorf("udp same-user: %v", err)
	}
}

func TestPortCollisionNoCrosstalk(t *testing.T) {
	// Paper §V: "Even if two users accidentally choose the same port
	// number for a network service, they cannot crosstalk and corrupt
	// each others data."
	n, h1, h2, creds, _, _ := world(t, Config{})
	port := 7000
	// Alice's service on node1, carol's service on node2 — same port.
	if _, err := h1.Listen(creds["alice"], netsim.TCP, port); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Listen(creds["carol"], netsim.TCP, port); err != nil {
		t.Fatal(err)
	}
	// Alice's client meant node1 but was misconfigured to node2 —
	// it lands on carol's service; UBF refuses the cross-user flow.
	if _, err := h1.Dial(creds["alice"], netsim.TCP, "node2", port); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("collision dial err = %v, want drop", err)
	}
	// Correctly-addressed same-user traffic still flows.
	if _, err := h2.Dial(creds["alice"], netsim.TCP, "node1", port); err != nil {
		t.Errorf("own-service dial: %v", err)
	}
	_ = n
}

func TestVerdictCache(t *testing.T) {
	_, h1, h2, creds, _, d := world(t, Config{CacheVerdicts: true})
	if _, err := h2.Listen(creds["alice"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := h1.Dial(creds["alice"], netsim.TCP, "node2", 5000); err != nil {
			t.Fatal(err)
		}
	}
	if d.CacheHits.Load() != 9 {
		t.Errorf("cache hits = %d, want 9", d.CacheHits.Load())
	}
}

// TestVerdictCacheKeysGroupMembership: a cached drop must not outlive
// the dialer joining the listener's group. Two dials of the same
// (source, listener, group) triple, before and after carol joins proj,
// get different verdicts with the cache on.
func TestVerdictCacheKeysGroupMembership(t *testing.T) {
	_, h1, h2, creds, proj, d := world(t, Config{CacheVerdicts: true})
	if _, err := h2.Listen(creds["alice-proj"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(creds["carol"], netsim.TCP, "node2", 5000); !errors.Is(err, netsim.ErrConnDropped) {
		t.Fatalf("dial from outside proj: err = %v, want ErrConnDropped", err)
	}
	joined := creds["carol"].Clone()
	joined.Groups = append(joined.Groups, proj)
	if _, err := h1.Dial(joined, netsim.TCP, "node2", 5000); err != nil {
		t.Errorf("dial after joining proj: %v (a cached drop outlived the membership change)", err)
	}
	if d.CacheHits.Load() != 0 {
		t.Errorf("cache hits = %d, want 0: the two dials differ in membership", d.CacheHits.Load())
	}
}

func TestCacheDisabledAlwaysQueries(t *testing.T) {
	n, h1, h2, creds, _, d := world(t, Config{CacheVerdicts: false})
	if _, err := h2.Listen(creds["alice"], netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	for i := 0; i < 5; i++ {
		if _, err := h1.Dial(creds["alice"], netsim.TCP, "node2", 5000); err != nil {
			t.Fatal(err)
		}
	}
	if d.CacheHits.Load() != 0 {
		t.Errorf("cache hits with cache off")
	}
	// Two ident queries (src+dst) per new connection.
	if q := n.IdentQueries.Load(); q != 10 {
		t.Errorf("ident queries = %d, want 10", q)
	}
}

func TestFailClosedOnIdentFailure(t *testing.T) {
	// A raw hook invocation with a bogus flow (no such sockets) must
	// fail closed.
	n := netsim.NewNetwork()
	n.AddHost("node1")
	n.AddHost("node2")
	d := New(Config{})
	flow := netsim.FlowTuple{Proto: netsim.TCP, SrcHost: "node1", SrcPort: 44444, DstHost: "node2", DstPort: 5000}
	if v := d.Hook()(n, flow); v != netsim.Drop {
		t.Errorf("ident-failure verdict = %v, want Drop", v)
	}
}

func TestEstablishedFlowsSurviveRuleChanges(t *testing.T) {
	// conntrack semantics: once accepted, a flow keeps working even
	// if the daemon would now deny it (e.g. after group removal).
	_, h1, h2, creds, _, _ := world(t, Config{})
	if _, err := h2.Listen(creds["alice-proj"], netsim.TCP, 5001); err != nil {
		t.Fatal(err)
	}
	c, err := h1.Dial(creds["bob"], netsim.TCP, "node2", 5001)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a drop-everything hook; the established conn still flows.
	h2.SetFirewall(func(*netsim.Network, netsim.FlowTuple) netsim.Verdict { return netsim.Drop }, nil)
	if err := c.Send([]byte("still-works")); err != nil {
		t.Errorf("established send after rule change: %v", err)
	}
	// But new connections are now denied.
	if _, err := h1.Dial(creds["bob"], netsim.TCP, "node2", 5001); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("new conn err = %v, want drop", err)
	}
}

// Property: the UBF decision matches the paper's predicate exactly —
// allow iff same uid, or connector in listener's primary group.
func TestQuickDecisionMatchesPredicate(t *testing.T) {
	f := func(srcUID, dstUID uint8, egid uint8, inGroup bool) bool {
		src := ids.Credential{UID: ids.UID(srcUID), EGID: ids.GID(srcUID), Groups: []ids.GID{ids.GID(srcUID)}}
		dst := ids.Credential{UID: ids.UID(dstUID), EGID: ids.GID(egid), Groups: []ids.GID{ids.GID(egid)}}
		if inGroup {
			src.Groups = append(src.Groups, ids.GID(egid))
		}
		v := decide(src, dst)
		want := netsim.Drop
		if src.UID == dst.UID || src.InGroup(dst.EGID) {
			want = netsim.Accept
		}
		return v == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset must empty the cache and counters while keeping the daemon's
// installed hooks working.
func TestDaemonReset(t *testing.T) {
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	d := New(Config{CacheVerdicts: true})
	d.InstallOn(h2)
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	if _, err := h2.Listen(alice, netsim.TCP, 9000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h1.Dial(alice, netsim.TCP, "b", 9000); err != nil {
			t.Fatal(err)
		}
	}
	if d.CacheHits.Load() == 0 {
		t.Fatal("expected cache hits before Reset")
	}
	d.Reset()
	if d.Decisions.Load() != 0 || d.CacheHits.Load() != 0 || d.Allowed.Load() != 0 || d.Denied.Load() != 0 {
		t.Error("counters survived Reset")
	}
	// The installed hook still decides — with a cold cache.
	if _, err := h1.Dial(alice, netsim.TCP, "b", 9000); err != nil {
		t.Fatal(err)
	}
	if d.Decisions.Load() != 1 || d.CacheHits.Load() != 0 {
		t.Errorf("post-reset decision path wrong: %d decisions, %d hits", d.Decisions.Load(), d.CacheHits.Load())
	}
}
