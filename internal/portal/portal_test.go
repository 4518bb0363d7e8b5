package portal

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/ubf"
)

// world: portal on a gateway host, two compute hosts, UBF everywhere.
func world(t *testing.T) (*Portal, *netsim.Network, map[string]*netsim.Host, map[string]ids.Credential) {
	t.Helper()
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	bob, _ := reg.AddUser("bob")
	n := netsim.NewNetwork()
	hosts := map[string]*netsim.Host{
		"gw":  n.AddHost("gw"),
		"c00": n.AddHost("c00"),
		"c01": n.AddHost("c01"),
	}
	d := ubf.New(ubf.Config{})
	for _, h := range hosts {
		d.InstallOn(h)
	}
	p := New(hosts["gw"])
	creds := map[string]ids.Credential{}
	for _, u := range []*ids.User{alice, bob} {
		c, _ := reg.LoginCredential(u.UID)
		creds[u.Name] = c
		p.Enroll(u.UID, u.Name+"-pw")
	}
	return p, n, hosts, creds
}

func TestLoginAndBadCredentials(t *testing.T) {
	p, _, _, creds := world(t)
	if _, err := p.Login(creds["alice"], "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("bad pw err = %v", err)
	}
	tok, err := p.Login(creds["alice"], "alice-pw")
	if err != nil || tok == "" {
		t.Fatalf("login: %q %v", tok, err)
	}
	// Unknown user.
	ghost := ids.Credential{UID: 9999}
	if _, err := p.Login(ghost, "x"); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("unknown user err = %v", err)
	}
}

func TestForwardRequiresAuth(t *testing.T) {
	p, _, hosts, creds := world(t)
	if _, err := Serve(hosts["c00"], creds["alice"], 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/jupyter/alice", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forward("no-such-token", "/jupyter/alice", []byte("GET /")); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("anon forward err = %v, want 401", err)
	}
}

func TestForwardOwnerSucceedsAnyNode(t *testing.T) {
	p, _, hosts, creds := world(t)
	// Apps on two different compute nodes — "any compute node in any
	// partition".
	appA, err := Serve(hosts["c00"], creds["alice"], 8888)
	if err != nil {
		t.Fatal(err)
	}
	appB, err := Serve(hosts["c01"], creds["alice"], 9999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/jupyter/a", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/tensorboard/a", "c01", 9999); err != nil {
		t.Fatal(err)
	}
	tok, _ := p.Login(creds["alice"], "alice-pw")
	for _, path := range []string{"/jupyter/a", "/tensorboard/a"} {
		resp, err := p.Forward(tok, path, []byte("GET /api/status"))
		if err != nil {
			t.Errorf("forward %s: %v", path, err)
		}
		if len(resp) == 0 {
			t.Errorf("empty response for %s", path)
		}
	}
	if appA.Drain() != 1 || appB.Drain() != 1 {
		t.Errorf("apps did not receive exactly one request each")
	}
}

func TestForwardCrossUserDeniedByUBF(t *testing.T) {
	// Bob authenticates fine — but the forwarded hop runs as bob, so
	// the UBF drops it at alice's listener: the whole path is
	// authorized, not just the front door.
	p, _, hosts, creds := world(t)
	if _, err := Serve(hosts["c00"], creds["alice"], 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/jupyter/a", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	tokBob, err := p.Login(creds["bob"], "bob-pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forward(tokBob, "/jupyter/a", []byte("GET /")); !errors.Is(err, ErrForbidden) {
		t.Errorf("cross-user forward err = %v, want 403", err)
	}
}

func TestForwardNoRouteAndDeadUpstream(t *testing.T) {
	p, _, _, creds := world(t)
	tok, _ := p.Login(creds["alice"], "alice-pw")
	if _, err := p.Forward(tok, "/ghost", nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("no-route err = %v, want 404", err)
	}
	// Route registered but nothing listening: 502.
	if _, err := p.Register(creds["alice"], "/dead", "c00", 7777); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forward(tok, "/dead", nil); !errors.Is(err, ErrBadGateway) {
		t.Errorf("dead upstream err = %v, want 502", err)
	}
}

// A registered path belongs to its owner: another user cannot
// re-point it at their own app, while the owner (and root) can.
func TestRegisterRefusesForeignPath(t *testing.T) {
	p, _, hosts, creds := world(t)
	app, err := Serve(hosts["c00"], creds["alice"], 8888)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Serve(hosts["c01"], creds["bob"], 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/jupyter/alice", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["bob"], "/jupyter/alice", "c01", 8888); !errors.Is(err, ErrForbidden) {
		t.Errorf("foreign re-register err = %v, want 403", err)
	}
	tok, _ := p.Login(creds["alice"], "alice-pw")
	resp, err := p.Forward(tok, "/jupyter/alice", []byte("GET /"))
	if err != nil || string(resp) != "200 OK /jupyter/alice via c00:8888" {
		t.Errorf("forward after hijack attempt = %q, %v; want alice's app on c00", resp, err)
	}
	if app.Drain() != 1 {
		t.Error("alice's app did not receive her request")
	}
	if _, err := p.Register(creds["alice"], "/jupyter/alice", "c01", 9999); err != nil {
		t.Errorf("owner re-register: %v", err)
	}
	if _, err := p.Register(ids.RootCred(), "/jupyter/alice", "c00", 8888); err != nil {
		t.Errorf("root re-register: %v", err)
	}
}

func TestBaselineNoUBFCrossUserForwardSucceeds(t *testing.T) {
	// Ablation: with no firewall installed, bob's authenticated
	// session reaches alice's app — authentication alone does not
	// authorize the path (why the paper pairs the portal with UBF).
	reg := ids.NewRegistry()
	alice, _ := reg.AddUser("alice")
	bob, _ := reg.AddUser("bob")
	n := netsim.NewNetwork()
	gw, c00 := n.AddHost("gw"), n.AddHost("c00")
	_ = c00
	p := New(gw)
	ca, _ := reg.LoginCredential(alice.UID)
	cb, _ := reg.LoginCredential(bob.UID)
	p.Enroll(alice.UID, "a")
	p.Enroll(bob.UID, "b")
	host, _ := n.Host("c00")
	if _, err := Serve(host, ca, 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(ca, "/j", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	tok, _ := p.Login(cb, "b")
	if _, err := p.Forward(tok, "/j", []byte("GET /")); err != nil {
		t.Errorf("baseline cross-user forward should succeed (leak): %v", err)
	}
}

func TestTunnelModeForwardsAsRouteOwner(t *testing.T) {
	// The §IV-E ablation: in tunnel mode the hop terminates as the
	// ROUTE OWNER (pre-portal ad-hoc tunnel semantics), so the UBF
	// only ever sees alice's identity and bob's authenticated session
	// sails through to alice's app.
	p, _, hosts, creds := world(t)
	p.SetTunnelMode(true)
	if _, err := Serve(hosts["c00"], creds["alice"], 8888); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(creds["alice"], "/jupyter/a", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	tokBob, err := p.Login(creds["bob"], "bob-pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forward(tokBob, "/jupyter/a", []byte("GET /")); err != nil {
		t.Errorf("tunnel-mode cross-user forward err = %v, want reopened", err)
	}
	// Authentication is still the front door even in tunnel mode.
	if _, err := p.Forward("bogus", "/jupyter/a", nil); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("unauthenticated tunnel forward err = %v, want 401", err)
	}
}

// Reset must drop enrolments, sessions and routes and rewind the token
// counter so a reset portal issues the same tokens a fresh one would.
func TestPortalReset(t *testing.T) {
	n := netsim.NewNetwork()
	p := New(n.AddHost("portal"))
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	p.Enroll(alice.UID, "pw")
	tok1, err := p.Login(alice, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(alice, "/app", "c00", 8888); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if _, err := p.Login(alice, "pw"); err == nil {
		t.Error("enrolment survived Reset")
	}
	if _, err := p.Forward(tok1, "/app", nil); err == nil {
		t.Error("stale session token still valid after Reset")
	}
	p.Enroll(alice.UID, "pw")
	tok2, err := p.Login(alice, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if tok2 != tok1 {
		t.Errorf("token counter did not rewind: %q vs %q", tok2, tok1)
	}
	if _, err := p.Forward(tok2, "/app", nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("forward to pre-Reset route err = %v, want 404 (routes must not survive)", err)
	}
}
