package netsim

import (
	"fmt"

	"repro/internal/ids"
)

// Listener is a bound server socket. The owning credential is what
// the UBF's listener-side ident query returns; its effective GID is
// the "primary group of the listener process" the group rule keys on
// (switchable via newgrp/sg before binding).
type Listener struct {
	host  *Host
	proto Proto
	port  int
	cred  ids.Credential

	backlog []*Conn
	head    int // next connection Accept pops
}

// Listen binds a socket on the host. Binding below 1024 requires
// root, like Linux.
func (h *Host) Listen(cred ids.Credential, proto Proto, port int) (*Listener, error) {
	if port < 1024 && !cred.IsRoot() {
		return nil, fmt.Errorf("%w: privileged port %d", ErrConnRefused, port)
	}
	key := portKey{proto, port}
	if _, dup := h.listeners[key]; dup {
		return nil, fmt.Errorf("%w: %s:%d/%s", ErrAddrInUse, h.name, port, proto)
	}
	l := &h.net.listeners.Alloc(1)[0]
	l.host, l.proto, l.port = h, proto, port
	l.cred = h.net.cloneCred(cred)
	l.backlog, l.head = l.backlog[:0], 0
	h.listeners[key] = l
	h.touch()
	return l, nil
}

// Accept returns the next established inbound connection, if any.
func (l *Listener) Accept() (*Conn, bool) {
	if l.head == len(l.backlog) {
		return nil, false
	}
	c := l.backlog[l.head]
	if l.head++; l.head == len(l.backlog) {
		// Drained: reuse the backlog's storage from its start.
		clear(l.backlog)
		l.backlog, l.head = l.backlog[:0], 0
	}
	return c, true
}

// Conn is an established flow. The dialer holds the same *Conn the
// acceptor sees; data moves from the dialer to the acceptor.
type Conn struct {
	Tuple FlowTuple

	toDst   [][]byte // data sent by the dialer
	head    int      // next payload Recv pops
	closed  bool
	net     *Network
	srcHost *Host
}

// Dial establishes a connection from a process with cred on this host
// to dstHost:dstPort. The receiving host's firewall hook is consulted
// for the NEW connection; once established, traffic flows via
// conntrack without re-inspection (§IV-D).
func (h *Host) Dial(cred ids.Credential, proto Proto, dstHost string, dstPort int) (*Conn, error) {
	dst, err := h.net.Host(dstHost)
	if err != nil {
		return nil, err
	}
	srcPort, err := h.allocEphemeral(cred)
	if err != nil {
		return nil, err
	}
	flow := FlowTuple{Proto: proto, SrcHost: h.name, SrcPort: srcPort, DstHost: dstHost, DstPort: dstPort}
	l, listening := dst.listeners[portKey{proto, dstPort}]
	if !listening {
		h.releaseEphemeral(srcPort)
		return nil, &FlowError{Flow: flow, Err: ErrConnRefused}
	}

	// NEW connection: consult the firewall hook (nfqueue) unless the
	// port is outside the inspected range.
	if dst.hook != nil && (dst.hookPorts == nil || dst.hookPorts(dstPort)) {
		h.net.HookInvocations.Add(1)
		if v := dst.hook(h.net, flow); v != Accept {
			h.net.NewConnDropped.Add(1)
			h.releaseEphemeral(srcPort)
			return nil, &FlowError{Flow: flow, Err: ErrConnDropped}
		}
	}
	h.net.NewConnAccepted.Add(1)

	c := &h.net.conns.Alloc(1)[0]
	c.Tuple, c.net, c.srcHost = flow, h.net, h
	c.toDst, c.head, c.closed = c.toDst[:0], 0, false
	// conntrack entries on both hosts cover both directions.
	dst.touch()
	dst.conntrack[flow], dst.conntrack[flow.reverse()] = true, true
	h.conntrack[flow], h.conntrack[flow.reverse()] = true, true
	l.backlog = append(l.backlog, c)
	return c, nil
}

// Send transmits a payload from the dialer side. Established flows
// are validated against conntrack only — the per-packet fast path.
func (c *Conn) Send(data []byte) error {
	if c.closed {
		return &FlowError{Flow: c.Tuple, Err: ErrConnClosed}
	}
	// conntrack lookup (cheap map hit) — no firewall hook.
	dst, err := c.net.Host(c.Tuple.DstHost)
	if err != nil {
		return err
	}
	if !dst.conntrack[c.Tuple] {
		return fmt.Errorf("%w: %s not in conntrack", ErrConnClosed, c.Tuple)
	}
	c.net.PacketsDelivered.Add(1)
	c.toDst = append(c.toDst, c.net.payloads.Clone(data))
	return nil
}

// Recv pops the next payload on the acceptor side.
func (c *Conn) Recv() ([]byte, bool) {
	if c.head == len(c.toDst) {
		return nil, false
	}
	d := c.toDst[c.head]
	if c.head++; c.head == len(c.toDst) {
		// Drained: reuse the queue's storage from its start.
		clear(c.toDst)
		c.toDst, c.head = c.toDst[:0], 0
	}
	return d, true
}

// Close tears the flow down and removes conntrack state.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if dst, err := c.net.Host(c.Tuple.DstHost); err == nil {
		delete(dst.conntrack, c.Tuple)
		delete(dst.conntrack, c.Tuple.reverse())
	}
	delete(c.srcHost.conntrack, c.Tuple)
	delete(c.srcHost.conntrack, c.Tuple.reverse())
	c.srcHost.releaseEphemeral(c.Tuple.SrcPort)
}
