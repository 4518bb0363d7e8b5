package ppsfw

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/ubf"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func TestDefaultDeny(t *testing.T) {
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	fw := New()
	fw.InstallOn(h2)
	if _, err := h2.Listen(cred(1000), netsim.TCP, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(cred(1000), netsim.TCP, "b", 5000); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("default-deny dial err = %v", err)
	}
}

func TestApprovedServiceFlows(t *testing.T) {
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	fw := New()
	fw.Approve("web", netsim.TCP, 8080, 8080)
	fw.InstallOn(h2)
	if _, err := h2.Listen(cred(1000), netsim.TCP, 8080); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(cred(1000), netsim.TCP, "b", 8080); err != nil {
		t.Errorf("approved dial: %v", err)
	}
	// Same service, wrong proto: denied.
	if _, err := h2.Listen(cred(1000), netsim.UDP, 8080); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(cred(1000), netsim.UDP, "b", 8080); !errors.Is(err, netsim.ErrConnDropped) {
		t.Errorf("wrong-proto dial err = %v", err)
	}
}

// TestVersionZeroDilemma reproduces the paper's argument (§IV-D):
// a PPS firewall either blocks the user's own novel app, or — once a
// broad port range is opened — admits cross-user traffic too. The UBF
// does the right thing in both cases on the same scenario.
func TestVersionZeroDilemma(t *testing.T) {
	newWorld := func() (*netsim.Network, *netsim.Host, *netsim.Host) {
		n := netsim.NewNetwork()
		return n, n.AddHost("a"), n.AddHost("b")
	}
	owner, stranger := cred(1000), cred(2000)
	const novelPort = 47113 // "version 0" app picked a random port

	// PPS, strict policy: the owner's own app is blocked.
	{
		_, h1, h2 := newWorld()
		fw := New()
		fw.Approve("ssh", netsim.TCP, 22, 22)
		fw.InstallOn(h2)
		if _, err := h2.Listen(owner, netsim.TCP, novelPort); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.Dial(owner, netsim.TCP, "b", novelPort); err == nil {
			t.Errorf("strict PPS admitted the unapproved novel app")
		}
	}
	// PPS, permissive policy: the app works — and so does the attacker.
	{
		_, h1, h2 := newWorld()
		fw := New()
		fw.Approve("user-ports", netsim.TCP, 1024, 65535)
		fw.InstallOn(h2)
		if _, err := h2.Listen(owner, netsim.TCP, novelPort); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.Dial(owner, netsim.TCP, "b", novelPort); err != nil {
			t.Errorf("permissive PPS blocked the owner: %v", err)
		}
		if _, err := h1.Dial(stranger, netsim.TCP, "b", novelPort); err != nil {
			t.Errorf("permissive PPS should admit the stranger (that is the failure): %v", err)
		}
	}
	// UBF on the identical scenario: owner works, stranger blocked,
	// zero pre-approval needed.
	{
		_, h1, h2 := newWorld()
		d := ubf.New(ubf.Config{})
		d.InstallOn(h2)
		if _, err := h2.Listen(owner, netsim.TCP, novelPort); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.Dial(owner, netsim.TCP, "b", novelPort); err != nil {
			t.Errorf("UBF blocked the owner's novel app: %v", err)
		}
		if _, err := h1.Dial(stranger, netsim.TCP, "b", novelPort); !errors.Is(err, netsim.ErrConnDropped) {
			t.Errorf("UBF admitted the stranger: %v", err)
		}
	}
}

func TestRuleStringAndMatches(t *testing.T) {
	r := Rule{Name: "web", Proto: netsim.TCP, PortLow: 80, PortHigh: 90}
	if r.String() == "" {
		t.Error("empty String")
	}
	if !r.Matches(netsim.FlowTuple{Proto: netsim.TCP, DstPort: 85}) {
		t.Error("in-range no match")
	}
	if r.Matches(netsim.FlowTuple{Proto: netsim.UDP, DstPort: 85}) {
		t.Error("wrong proto matched")
	}
	if r.Matches(netsim.FlowTuple{Proto: netsim.TCP, DstPort: 91}) {
		t.Error("out-of-range matched")
	}
}
