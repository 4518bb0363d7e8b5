package netsim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
)

func cred(uid ids.UID) ids.Credential {
	return ids.Credential{UID: uid, EGID: ids.GID(uid), Groups: []ids.GID{ids.GID(uid)}}
}

func twoHosts(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork()
	return n, n.AddHost("node1"), n.AddHost("node2")
}

func TestDialAndDataRoundtrip(t *testing.T) {
	_, h1, h2 := twoHosts(t)
	l, err := h2.Listen(cred(1000), TCP, 5000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := h1.Dial(cred(1000), TCP, "node2", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	sc, ok := l.Accept()
	if !ok {
		t.Fatal("no connection in backlog")
	}
	if d, ok := sc.Recv(); !ok || string(d) != "ping" {
		t.Errorf("recv %q %v", d, ok)
	}
}

func TestDialRefusedNoListener(t *testing.T) {
	_, h1, _ := twoHosts(t)
	if _, err := h1.Dial(cred(1000), TCP, "node2", 9999); !errors.Is(err, ErrConnRefused) {
		t.Errorf("err = %v, want ErrConnRefused", err)
	}
	if _, err := h1.Dial(cred(1000), TCP, "ghost", 80); !errors.Is(err, ErrNoHost) {
		t.Errorf("err = %v, want ErrNoHost", err)
	}
}

func TestListenConflictsAndPrivilegedPorts(t *testing.T) {
	_, h1, _ := twoHosts(t)
	if _, err := h1.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Listen(cred(2000), TCP, 5000); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("dup bind err = %v, want ErrAddrInUse", err)
	}
	// Same port, different proto is fine.
	if _, err := h1.Listen(cred(2000), UDP, 5000); err != nil {
		t.Errorf("udp bind: %v", err)
	}
	if _, err := h1.Listen(cred(1000), TCP, 80); err == nil {
		t.Errorf("non-root bound privileged port")
	}
	if _, err := h1.Listen(ids.RootCred(), TCP, 80); err != nil {
		t.Errorf("root privileged bind: %v", err)
	}
}

func TestFirewallHookDropsAndStats(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	dropAll := func(_ *Network, _ FlowTuple) Verdict { return Drop }
	h2.SetFirewall(dropAll, nil)
	if _, err := h1.Dial(cred(1000), TCP, "node2", 5000); !errors.Is(err, ErrConnDropped) {
		t.Errorf("err = %v, want ErrConnDropped", err)
	}
	if n.HookInvocations.Load() != 1 || n.NewConnDropped.Load() != 1 {
		t.Errorf("stats: hooks=%d dropped=%d", n.HookInvocations.Load(), n.NewConnDropped.Load())
	}
	h2.SetFirewall(nil, nil) // a nil hook is the baseline: no firewall
	if _, err := h1.Dial(cred(1000), TCP, "node2", 5000); err != nil {
		t.Errorf("dial after removing the hook: %v", err)
	}
}

func TestPortFilterSkipsHook(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(ids.RootCred(), TCP, 22); err != nil {
		t.Fatal(err)
	}
	dropAll := func(_ *Network, _ FlowTuple) Verdict { return Drop }
	h2.SetFirewall(dropAll, func(p int) bool { return p >= 1024 })
	// Port 22 is below the inspected range: hook not consulted.
	if _, err := h1.Dial(cred(1000), TCP, "node2", 22); err != nil {
		t.Errorf("dial to uninspected port: %v", err)
	}
	if n.HookInvocations.Load() != 0 {
		t.Errorf("hook invoked for filtered port")
	}
}

func TestEstablishedTrafficBypassesHook(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	acceptOnce := func(_ *Network, _ FlowTuple) Verdict { return Accept }
	h2.SetFirewall(acceptOnce, nil)
	c, err := h1.Dial(cred(1000), TCP, "node2", 5000)
	if err != nil {
		t.Fatal(err)
	}
	before := n.HookInvocations.Load()
	for i := 0; i < 100; i++ {
		if err := c.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n.HookInvocations.Load() != before {
		t.Errorf("established packets hit the hook")
	}
	if n.PacketsDelivered.Load() != 100 {
		t.Errorf("packets = %d", n.PacketsDelivered.Load())
	}
}

func TestCloseRemovesConntrack(t *testing.T) {
	_, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	c, err := h1.Dial(cred(1000), TCP, "node2", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.conntrack[c.Tuple] {
		t.Fatal("flow not in conntrack")
	}
	c.Close()
	if h2.conntrack[c.Tuple] {
		t.Errorf("flow in conntrack after close")
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Errorf("send after close err = %v", err)
	}
	// Idempotent close.
	c.Close()
}

func TestIdentQueries(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	alice := cred(1000)
	if _, err := h2.Listen(alice, TCP, 5000); err != nil {
		t.Fatal(err)
	}
	got, err := n.Ident("node2", TCP, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != 1000 {
		t.Errorf("ident uid = %d", got.UID)
	}
	// Connector-side ident: dial, then query the ephemeral port.
	c, err := h1.Dial(cred(2000), TCP, "node2", 5000)
	if err != nil {
		t.Fatal(err)
	}
	src, err := n.Ident("node1", TCP, c.Tuple.SrcPort)
	if err != nil {
		t.Fatal(err)
	}
	if src.UID != 2000 {
		t.Errorf("connector ident uid = %d", src.UID)
	}
	// Unknown port fails.
	if _, err := n.Ident("node1", TCP, 1); !errors.Is(err, ErrIdentUnavailable) {
		t.Errorf("unknown port ident err = %v", err)
	}
}

// Every dial from a host holds its own ephemeral port while open, and
// ident answers for each with the dialer.
func TestEphemeralPortsUnique(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	const dialers, each = 16, 20
	seen := make(map[int]bool)
	for i := 0; i < dialers*each; i++ {
		uid := ids.UID(1000 + i%dialers)
		c, err := h1.Dial(cred(uid), TCP, "node2", 5000)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Tuple.SrcPort
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
		if got, err := n.Ident("node1", TCP, p); err != nil || got.UID != uid {
			t.Fatalf("ident of port %d = %v, %v; want uid %d", p, got.UID, err, uid)
		}
	}
}

func TestAbstractSocketResidualChannel(t *testing.T) {
	_, h1, _ := twoHosts(t)
	alice, bob := cred(1000), cred(2000)
	s, err := h1.ListenAbstract(alice, "mpi-coordinator")
	if err != nil {
		t.Fatal(err)
	}
	// A different user CAN send — no permission check exists; this is
	// the paper's acknowledged residual channel.
	if err := h1.DialAbstract(bob, "mpi-coordinator", []byte("crosstalk")); err != nil {
		t.Fatalf("abstract dial should succeed (residual channel): %v", err)
	}
	d, from, ok := s.Recv()
	if !ok || string(d) != "crosstalk" || from != 2000 {
		t.Errorf("recv = %q from %d ok=%v", d, from, ok)
	}
	if err := h1.DialAbstract(bob, "ghost", nil); !errors.Is(err, ErrNoAbstract) {
		t.Errorf("dial ghost err = %v", err)
	}
	if _, err := h1.ListenAbstract(bob, "mpi-coordinator"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("dup abstract err = %v", err)
	}
}

// Datagrams from several senders, interleaved with receives, each
// arrive exactly once, in send order, with their sender's UID.
func TestAbstractSocketDeliversEachOnce(t *testing.T) {
	_, h1, _ := twoHosts(t)
	s, err := h1.ListenAbstract(cred(1000), "coord")
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 4, 50
	var got []string
	recv := func() {
		for {
			d, from, ok := s.Recv()
			if !ok {
				return
			}
			got = append(got, fmt.Sprintf("%d:%s", from, d))
		}
	}
	var want []string
	for i := 0; i < each; i++ {
		for w := 0; w < senders; w++ {
			uid := ids.UID(2000 + w)
			msg := fmt.Sprintf("m%d", i)
			if err := h1.DialAbstract(cred(uid), "coord", []byte(msg)); err != nil {
				t.Fatal(err)
			}
			want = append(want, fmt.Sprintf("%d:%s", uid, msg))
		}
		if i%7 == 0 {
			recv()
		}
	}
	recv()
	if !slices.Equal(got, want) {
		t.Errorf("received %d datagrams, want each of %d exactly once in send order", len(got), len(want))
	}
}

func TestRDMAQPViaTCPControlled(t *testing.T) {
	_, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 18515); err != nil {
		t.Fatal(err)
	}
	dropAll := func(_ *Network, _ FlowTuple) Verdict { return Drop }
	h2.SetFirewall(dropAll, nil)
	// QP setup over TCP is blocked by the firewall...
	if _, err := h1.SetupQP(cred(2000), QPViaTCP, "node2", 18515); !errors.Is(err, ErrConnDropped) {
		t.Errorf("tcp-cm setup err = %v, want ErrConnDropped", err)
	}
	// ...but the native CM bypasses it: the residual channel.
	qp, err := h1.SetupQP(cred(2000), QPViaNativeCM, "node2", 0)
	if err != nil {
		t.Fatalf("native-cm setup: %v", err)
	}
	if err := qp.Write([]byte("rdma-data")); err != nil {
		t.Errorf("qp write: %v", err)
	}
	qp.Close()
	if _, err := h1.SetupQP(cred(2000), QPViaNativeCM, "ghost", 0); !errors.Is(err, ErrNoHost) {
		t.Errorf("native-cm to ghost err = %v", err)
	}
}

func TestRDMAQPViaTCPAllowedWorks(t *testing.T) {
	_, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 18515); err != nil {
		t.Fatal(err)
	}
	qp, err := h1.SetupQP(cred(1000), QPViaTCP, "node2", 18515)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.Write([]byte("bulk")); err != nil {
		t.Errorf("write: %v", err)
	}
	qp.Close()
	if err := qp.Write([]byte("after-close")); err == nil {
		t.Errorf("write after close succeeded")
	}
}

func TestStringers(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Error("Proto.String")
	}
	if Accept.String() != "ACCEPT" || Drop.String() != "DROP" {
		t.Error("Verdict.String")
	}
	if QPViaTCP.String() != "tcp-cm" || QPViaNativeCM.String() != "native-cm" {
		t.Error("QPSetupMode.String")
	}
	f := FlowTuple{Proto: TCP, SrcHost: "a", SrcPort: 1, DstHost: "b", DstPort: 2}
	if f.String() == "" || f.reverse().SrcHost != "b" {
		t.Error("FlowTuple")
	}
	n := NewNetwork()
	n.AddHost("b")
	n.AddHost("a")
	if hosts := n.Hosts(); len(hosts) != 2 || hosts[0] != "a" {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestResetStats(t *testing.T) {
	n, h1, h2 := twoHosts(t)
	if _, err := h2.Listen(cred(1000), TCP, 5000); err != nil {
		t.Fatal(err)
	}
	c, _ := h1.Dial(cred(1000), TCP, "node2", 5000)
	_ = c.Send([]byte("x"))
	n.ResetStats()
	if n.PacketsDelivered.Load() != 0 || n.NewConnAccepted.Load() != 0 {
		t.Errorf("stats not reset")
	}
}

// Network.Reset must drop sockets, conntrack, ephemeral ports and
// abstract sockets while preserving installed firewalls.
func TestNetworkReset(t *testing.T) {
	n := NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	denyAll := func(net *Network, f FlowTuple) Verdict { return Drop }
	h2.SetFirewall(denyAll, func(port int) bool { return port >= 20000 })
	l, err := h2.Listen(alice, TCP, 9000)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h1.Dial(alice, TCP, "b", 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.ListenAbstract(alice, "coord"); err != nil {
		t.Fatal(err)
	}
	n.Reset()
	if n.NewConnAccepted.Load() != 0 || n.PacketsDelivered.Load() != 0 {
		t.Error("stats survived Reset")
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("pre-reset connection still in conntrack")
	}
	if _, err := h1.Dial(alice, TCP, "b", 9000); err == nil {
		t.Error("pre-reset listener survived Reset")
	}
	if err := h2.DialAbstract(alice, "coord", []byte("x")); err == nil {
		t.Error("abstract socket survived Reset")
	}
	// The firewall hook survives (assembly wiring): a fresh listener on
	// an inspected port is still filtered.
	if _, err := h2.Listen(alice, TCP, 20001); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Dial(alice, TCP, "b", 20001); err == nil {
		t.Error("firewall hook lost across Reset")
	}
	_ = l
}
