package netsim

import (
	"errors"
	"fmt"

	"repro/internal/ids"
)

// This file implements the two network-adjacent residual channels the
// paper's Results section concedes remain open (§V):
//
//  1. abstract-namespace unix domain sockets: node-local, no
//     filesystem permission bits, not covered by the UBF because they
//     never traverse the IP stack;
//  2. RDMA traffic whose queue pairs are set up with the native IB
//     connection manager instead of a TCP control channel.

// AbstractSocket is an abstract-namespace unix domain socket. Unlike
// pathname sockets there is no inode, hence no permission check: any
// local process can connect to any name. That is the leak.
type AbstractSocket struct {
	msgs [][]byte
	from []ids.UID
	head int // next datagram Recv pops
}

// ErrNoAbstract is returned when dialing an unbound abstract name.
var ErrNoAbstract = errors.New("netsim: no such abstract socket")

// ListenAbstract binds an abstract-namespace socket on the host.
func (h *Host) ListenAbstract(cred ids.Credential, name string) (*AbstractSocket, error) {
	if _, dup := h.abstract[name]; dup {
		return nil, fmt.Errorf("%w: @%s", ErrAddrInUse, name)
	}
	s := &h.net.sockets.Alloc(1)[0]
	s.msgs, s.from, s.head = s.msgs[:0], s.from[:0], 0
	h.abstract[name] = s
	h.touch()
	return s, nil
}

// DialAbstract sends a datagram to a local abstract socket. There is
// deliberately no credential check: the kernel performs none for the
// abstract namespace, which is why it remains a residual channel.
func (h *Host) DialAbstract(cred ids.Credential, name string, data []byte) error {
	s, ok := h.abstract[name]
	if !ok {
		return fmt.Errorf("%w: @%s", ErrNoAbstract, name)
	}
	s.msgs = append(s.msgs, h.net.payloads.Clone(data))
	s.from = append(s.from, cred.UID)
	return nil
}

// Recv pops the next datagram and its sender UID.
func (s *AbstractSocket) Recv() ([]byte, ids.UID, bool) {
	if s.head == len(s.msgs) {
		return nil, ids.NoUID, false
	}
	d, u := s.msgs[s.head], s.from[s.head]
	if s.head++; s.head == len(s.msgs) {
		// Drained: reuse the queue's storage from its start.
		clear(s.msgs)
		s.msgs, s.from, s.head = s.msgs[:0], s.from[:0], 0
	}
	return d, u, true
}

// --- RDMA ---

// QPSetupMode is how an RDMA queue pair is established.
type QPSetupMode int

// QP setup modes (paper §IV-D and appendix).
const (
	// QPViaTCP sets up the queue pair over a TCP control channel —
	// the common case for MPI/verbs frameworks, and therefore
	// *implicitly controlled* by the UBF.
	QPViaTCP QPSetupMode = iota
	// QPViaNativeCM uses the InfiniBand connection manager directly —
	// not covered by the UBF; the paper's acknowledged residual.
	QPViaNativeCM
)

func (m QPSetupMode) String() string {
	if m == QPViaTCP {
		return "tcp-cm"
	}
	return "native-cm"
}

// QueuePair is an established RDMA connection.
type QueuePair struct {
	ctrl *Conn // non-nil for QPViaTCP
}

// SetupQP establishes an RDMA queue pair from this host to a peer.
// With QPViaTCP, the setup dials ctrlPort over TCP first — so the UBF
// verdict applies and a drop prevents the QP entirely. With
// QPViaNativeCM, the CM exchange bypasses the IP firewall: setup
// always succeeds if the peer exists.
func (h *Host) SetupQP(cred ids.Credential, mode QPSetupMode, remote string, ctrlPort int) (*QueuePair, error) {
	if mode == QPViaNativeCM {
		if _, err := h.net.Host(remote); err != nil {
			return nil, err
		}
		return h.qp(nil), nil
	}
	c, err := h.Dial(cred, TCP, remote, ctrlPort)
	if fe, ok := err.(*FlowError); ok {
		fe.Op = "rdma qp setup via tcp"
		return nil, fe
	}
	if err != nil {
		return nil, fmt.Errorf("rdma qp setup via tcp: %w", err)
	}
	return h.qp(c), nil
}

// qp carves a queue pair over the control connection ctrl (nil for
// the native CM) from the queue-pair slab.
func (h *Host) qp(ctrl *Conn) *QueuePair {
	qp := &h.net.qps.Alloc(1)[0]
	qp.ctrl = ctrl
	return qp
}

// Write performs an RDMA write over the established QP. Once a QP
// exists, data moves regardless of firewall state — exactly why
// controlling setup is the only lever.
func (qp *QueuePair) Write(data []byte) error {
	if qp.ctrl != nil {
		// Keep the control channel in conntrack; a closed control
		// conn in real frameworks usually tears the QP down too.
		return qp.ctrl.Send(data)
	}
	return nil
}

// Close tears down the QP and its control channel.
func (qp *QueuePair) Close() {
	if qp.ctrl != nil {
		qp.ctrl.Close()
	}
}
