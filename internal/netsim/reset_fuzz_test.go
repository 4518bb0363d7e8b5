package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/ids"
)

// netInput hands out the fuzzer's bytes one at a time, zero once they
// run out.
type netInput []byte

func (in *netInput) pick(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

var (
	netHosts = []string{"a", "b", "c"}
	netCreds = []ids.Credential{ids.RootCred(), cred(1000), cred(1001)}
	netPorts = []int{80, 1024, 2000, 2001}
	netNames = []string{"x", "y"}
)

// netFixture is a fabric of three hosts, c behind a user-based
// firewall on ports 2000 and up that admits a flow only when its two
// ends belong to one user, and the handles one cycle's calls made.
type netFixture struct {
	n         *Network
	conns     []*Conn
	listeners []*Listener
	sockets   []*AbstractSocket
	qps       []*QueuePair
}

func newNetFixture() *netFixture {
	n := NewNetwork()
	for _, name := range netHosts {
		n.AddHost(name)
	}
	sameUser := func(net *Network, f FlowTuple) Verdict {
		src, err := net.Ident(f.SrcHost, f.Proto, f.SrcPort)
		if err != nil {
			return Drop
		}
		dst, err := net.Ident(f.DstHost, f.Proto, f.DstPort)
		if err != nil || src.UID != dst.UID {
			return Drop
		}
		return Accept
	}
	n.hosts["c"].SetFirewall(sameUser, func(port int) bool { return port >= 2000 })
	return &netFixture{n: n}
}

// reset starts a cycle: the fabric is Reset and the previous cycle's
// handles, which Reset invalidated, are dropped.
func (fx *netFixture) reset() {
	fx.n.Reset()
	fx.conns, fx.listeners, fx.sockets, fx.qps = nil, nil, nil, nil
}

// netCall is one decoded call: op and the operands it draws.
type netCall struct {
	op, host, peer, cred, port, proto, name, handle int
	data                                            []byte
}

func (in *netInput) call() netCall {
	c := netCall{
		op: in.pick(11), host: in.pick(len(netHosts)), peer: in.pick(len(netHosts)),
		cred: in.pick(len(netCreds)), port: in.pick(len(netPorts)), proto: in.pick(2),
		name: in.pick(len(netNames)), handle: in.pick(256),
	}
	c.data = make([]byte, in.pick(3))
	for i := range c.data {
		c.data[i] = byte(in.pick(256))
	}
	return c
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// apply runs c on fx and renders everything it observed: the results
// the call returned, its error text, and the fabric's counters.
func (c netCall) apply(fx *netFixture) string {
	h := fx.n.hosts[netHosts[c.host]]
	cr, port, proto := netCreds[c.cred], netPorts[c.port], Proto(c.proto)
	var out string
	switch c.op {
	case 0:
		l, err := h.Listen(cr, proto, port)
		if err == nil {
			fx.listeners = append(fx.listeners, l)
		}
		out = errString(err)
	case 1:
		conn, err := h.Dial(cr, proto, netHosts[c.peer], port)
		if err == nil {
			fx.conns = append(fx.conns, conn)
			out = conn.Tuple.String()
		}
		out += " " + errString(err)
	case 2:
		s, err := h.ListenAbstract(cr, netNames[c.name])
		if err == nil {
			fx.sockets = append(fx.sockets, s)
		}
		out = errString(err)
	case 3:
		out = errString(h.DialAbstract(cr, netNames[c.name], c.data))
	case 4:
		if len(fx.conns) > 0 {
			out = errString(fx.conns[c.handle%len(fx.conns)].Send(c.data))
		}
	case 5:
		if len(fx.conns) > 0 {
			d, ok := fx.conns[c.handle%len(fx.conns)].Recv()
			out = fmt.Sprintf("%q %v", d, ok)
		}
	case 6:
		if len(fx.conns) > 0 {
			fx.conns[c.handle%len(fx.conns)].Close()
		}
	case 7:
		if len(fx.listeners) > 0 {
			conn, ok := fx.listeners[c.handle%len(fx.listeners)].Accept()
			if ok {
				out = conn.Tuple.String()
			}
		}
	case 8:
		if len(fx.sockets) > 0 {
			d, from, ok := fx.sockets[c.handle%len(fx.sockets)].Recv()
			out = fmt.Sprintf("%q %d %v", d, from, ok)
		}
	case 9:
		qp, err := h.SetupQP(cr, QPSetupMode(c.proto), netHosts[c.peer], port)
		if err == nil {
			fx.qps = append(fx.qps, qp)
		}
		out = errString(err)
	default:
		if len(fx.qps) > 0 {
			qp := fx.qps[c.handle%len(fx.qps)]
			out = errString(qp.Write(c.data))
			qp.Close()
		} else {
			id, err := fx.n.Ident(netHosts[c.host], proto, 32768+c.handle%4)
			out = id.String() + " " + errString(err)
		}
	}
	return fmt.Sprintf("%s [hook %d ident %d pkts %d acc %d drop %d]", out,
		fx.n.HookInvocations.Load(), fx.n.IdentQueries.Load(), fx.n.PacketsDelivered.Load(),
		fx.n.NewConnAccepted.Load(), fx.n.NewConnDropped.Load())
}

// netResetSeed is a deterministic seed input of n bytes.
func netResetSeed(i uint64, n int) []byte {
	r := rand.New(rand.NewPCG(i, 52))
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(r.Uint32())
	}
	return b
}

// queuedAtResetSeed is an input whose six cycles each leave queues
// full at Reset — a connection in a listener's backlog, a TCP payload
// on the connection and a datagram on an abstract socket — after first
// popping each: from the third cycle on the listener, connection and
// socket reuse the storage of ones whose queues were not empty.
func queuedAtResetSeed() []byte {
	// op, host, peer, cred, port, proto, name, handle, data length, data
	cycle := [][]byte{
		{0, 1, 0, 1, 1, 0, 0, 0, 0},           // Listen b:1024 as 1000
		{7, 0, 0, 0, 0, 0, 0, 0, 0},           // Accept on the listener
		{1, 0, 1, 1, 1, 0, 0, 0, 0},           // Dial a -> b:1024 as 1000
		{5, 0, 0, 0, 0, 0, 0, 0, 0},           // Recv on the connection
		{4, 0, 0, 0, 0, 0, 0, 0, 2, 'h', 'i'}, // Send "hi"
		{2, 0, 0, 2, 0, 0, 1, 0, 0},           // ListenAbstract a @y as 1001
		{8, 0, 0, 0, 0, 0, 0, 0, 0},           // Recv on the socket
		{3, 0, 0, 1, 0, 0, 1, 0, 1, 'z'},      // DialAbstract a @y "z" as 1000
	}
	var seed []byte
	for i := 0; i < 6; i++ {
		seed = append(seed, byte(len(cycle)))
		for _, c := range cycle {
			seed = append(seed, c...)
		}
	}
	return seed
}

// FuzzNetReset decodes bytes into cycles of calls — Listen, Dial,
// ListenAbstract, DialAbstract, Send, Recv, Close, Accept, abstract
// Recv, SetupQP both ways, QP writes and ident queries — on three hosts, one behind a same-user firewall. One network runs
// every cycle with Reset between them; each cycle also runs on a
// freshly built network. Every call's results, error text and the
// fabric's counters must be the fresh network's: nothing a cycle
// bound, queued or counted survives Reset, and nothing recycled from
// an earlier cycle shows through.
func FuzzNetReset(f *testing.F) {
	for i := uint64(0); i < 32; i++ {
		f.Add(netResetSeed(i, 600))
	}
	f.Add(queuedAtResetSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		in := netInput(data)
		pooled := newNetFixture()
		for cycle := 0; cycle < 8 && len(in) > 0; cycle++ {
			if cycle > 0 {
				pooled.reset()
			}
			fresh := newNetFixture()
			for k := in.pick(24); k > 0 && len(in) > 0; k-- {
				c := in.call()
				if got, want := c.apply(pooled), c.apply(fresh); got != want {
					t.Fatalf("cycle %d: op %d (%+v) on the reset network = %s; fresh network %s", cycle, c.op, c, got, want)
				}
			}
		}
	})
}
