// Package netsim implements the simulated cluster network: TCP/UDP
// sockets bound to node-local processes, a NetFilter-style firewall
// hook invoked for NEW connections only (nfqueue + conntrack,
// paper §IV-D), an ident-style socket-owner query (Network.Ident),
// abstract-namespace unix domain sockets (a residual channel, §V), and
// RDMA queue-pair setup via either a TCP control channel
// (UBF-controlled) or the native IB connection manager (not
// controlled, §V).
package netsim

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/slab"
)

// Proto is a transport protocol.
type Proto int

// Protocols.
const (
	TCP Proto = iota
	UDP
)

func (p Proto) String() string {
	if p == TCP {
		return "tcp"
	}
	return "udp"
}

// Verdict is a firewall decision.
type Verdict int

// Verdicts.
const (
	Accept Verdict = iota
	Drop
)

func (v Verdict) String() string {
	if v == Accept {
		return "ACCEPT"
	}
	return "DROP"
}

// FlowTuple identifies a connection attempt.
type FlowTuple struct {
	Proto   Proto
	SrcHost string
	SrcPort int
	DstHost string
	DstPort int
}

func (f FlowTuple) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d", f.Proto, f.SrcHost, f.SrcPort, f.DstHost, f.DstPort)
}

// FlowError is a connection attempt that failed or was refused, in the
// shape of os.PathError: Err is the sentinel (ErrConnDropped when the
// receiving host's firewall dropped it, ErrConnRefused, ...), Flow the
// attempt, and Op the operation the text names first ("" for none).
// The text is built only when Error is called.
type FlowError struct {
	Op   string
	Flow FlowTuple
	Err  error
}

func (e *FlowError) Error() string {
	s := e.Err.Error() + ": " + e.Flow.String()
	if e.Op != "" {
		s = e.Op + ": " + s
	}
	return s
}

func (e *FlowError) Unwrap() error { return e.Err }

// reverse returns the tuple of the reply direction.
func (f FlowTuple) reverse() FlowTuple {
	return FlowTuple{Proto: f.Proto, SrcHost: f.DstHost, SrcPort: f.DstPort, DstHost: f.SrcHost, DstPort: f.SrcPort}
}

// HookFunc is the nfqueue userspace decision function. It runs on the
// receiving host for NEW connections; established traffic bypasses it
// via conntrack. net gives the hook access to ident queries.
type HookFunc func(net *Network, flow FlowTuple) Verdict

// Network errors.
var (
	ErrNoHost           = errors.New("netsim: no such host")
	ErrConnRefused      = errors.New("netsim: connection refused")
	ErrConnDropped      = errors.New("netsim: connection dropped by firewall")
	ErrAddrInUse        = errors.New("netsim: address already in use")
	ErrConnClosed       = errors.New("netsim: connection closed")
	ErrNoEphemeral      = errors.New("netsim: ephemeral ports exhausted")
	ErrIdentUnavailable = errors.New("netsim: ident query failed")
)

// Network is the cluster fabric. It and everything on it are not safe
// for concurrent use; the cluster's owner calls them (DESIGN.md §7,
// "One owner per cluster").
type Network struct {
	hosts map[string]*Host

	// dirtyHosts counts hosts carrying dynamic socket state, so Reset
	// on an untouched fabric skips the whole-host walk (O(nodes) at
	// XXL scale).
	dirtyHosts int

	// The storage of everything the hosts hand out: listeners,
	// connections, abstract sockets and queue pairs, the credentials
	// they keep and the payloads they queue. Reset rewinds every slab,
	// so a pooled trial's traffic reuses the previous trial's storage
	// (listeners, connections and sockets keep their queues' capacity)
	// and allocates nothing once the slabs cover the busiest trial.
	// Everything handed out is therefore valid only until the next
	// Reset. The slabs start empty, and until the first Reset they
	// hand out heap storage (slab.Alloc).
	listeners slab.Slab[Listener]
	conns     slab.Slab[Conn]
	sockets   slab.Slab[AbstractSocket]
	qps       slab.Slab[QueuePair]
	gids      slab.Slab[ids.GID]
	payloads  slab.Slab[byte]

	// Stats counts hook invocations, ident queries and packets for
	// the overhead experiment (E8).
	HookInvocations  atomic.Int64
	IdentQueries     atomic.Int64
	PacketsDelivered atomic.Int64
	NewConnAccepted  atomic.Int64
	NewConnDropped   atomic.Int64
}

// NewNetwork creates an empty fabric.
func NewNetwork() *Network {
	return &Network{hosts: make(map[string]*Host)}
}

// AddHost registers a host by name. The returned Host carries the
// per-host socket tables and firewall configuration.
func (n *Network) AddHost(name string) *Host {
	h := &Host{
		name:      name,
		net:       n,
		listeners: make(map[portKey]*Listener),
		conntrack: make(map[FlowTuple]bool),
		nextEphem: 32768,
		abstract:  make(map[string]*AbstractSocket),
	}
	n.hosts[name] = h
	return h
}

// Host returns a host by name.
func (n *Network) Host(name string) (*Host, error) {
	h, ok := n.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoHost, name)
	}
	return h, nil
}

// Hosts lists host names sorted.
func (n *Network) Hosts() []string {
	out := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ident performs the UBF's ident-style query: who owns the socket at
// host:port/proto? For listener-side queries the port is the bound
// port; for connector-side queries it is the ephemeral source port.
// This models the RFC1413-like exchange of §IV-D: "an ident-like
// query is sent from the receiving system to the initiating system to
// get user information, and the same query run locally."
//
// The result is the socket's own stored credential, not a copy: it is
// read-only, and a caller that keeps or changes it must Clone it first.
func (n *Network) Ident(host string, proto Proto, port int) (ids.Credential, error) {
	n.IdentQueries.Add(1)
	h, err := n.Host(host)
	if err != nil {
		return ids.Credential{}, err
	}
	return h.identLocal(proto, port)
}

// ResetStats zeroes the counters (between bench phases).
func (n *Network) ResetStats() {
	n.HookInvocations.Store(0)
	n.IdentQueries.Store(0)
	n.PacketsDelivered.Store(0)
	n.NewConnAccepted.Store(0)
	n.NewConnDropped.Store(0)
}

// Reset rewinds the fabric to its freshly-wired state: every host's
// sockets, conntrack entries, ephemeral ports and abstract sockets are
// dropped, their storage is recycled, and the stats counters zeroed.
// Host membership and firewall hooks survive — they are
// cluster-assembly wiring, not traffic state.
func (n *Network) Reset() {
	n.ResetStats()
	n.listeners.Rewind()
	n.conns.Rewind()
	n.sockets.Rewind()
	n.qps.Rewind()
	n.gids.Rewind()
	n.payloads.Rewind()
	if n.dirtyHosts == 0 {
		return
	}
	for _, h := range n.hosts {
		h.Reset()
	}
}

type portKey struct {
	proto Proto
	port  int
}

// Host is one machine's network stack.
type Host struct {
	name string
	net  *Network

	listeners map[portKey]*Listener
	conntrack map[FlowTuple]bool // established flows, both directions
	hook      HookFunc           // nil = no firewall (baseline)
	hookPorts func(port int) bool
	ephemeral map[int]ids.Credential // src ports of active outbound conns
	abstract  map[string]*AbstractSocket

	// nextEphem and dirty share a word, which keeps a Host in the
	// 80-byte size class: a 10k-node cluster holds one per node.
	nextEphem int32
	// dirty marks that the host has accumulated socket state since the
	// last Reset.
	dirty bool
}

// touch marks the host dirty, maintaining the network-wide count of
// hosts that need a Reset sweep. Deletions never un-touch: a host that
// bound and closed a socket still counts until the next Reset, which
// keeps the flag monotone between resets.
func (h *Host) touch() {
	if !h.dirty {
		h.dirty = true
		h.net.dirtyHosts++
	}
}

// SetFirewall installs the nfqueue hook. portFilter selects which
// destination ports are inspected — the paper configures "ports
// numbered 1024 and above" (reproducibility appendix); nil inspects
// all ports.
func (h *Host) SetFirewall(hook HookFunc, portFilter func(port int) bool) {
	h.hook = hook
	h.hookPorts = portFilter
}

// Reset drops the host's dynamic socket state — listeners, conntrack
// entries, ephemeral port bindings, abstract sockets — and rewinds the
// ephemeral port counter, keeping the installed firewall hook. All
// existing allocations (the maps) are reused.
// Untouched hosts (no sockets bound since the last Reset) return
// immediately.
func (h *Host) Reset() {
	if !h.dirty {
		return
	}
	h.dirty = false
	h.net.dirtyHosts--
	clear(h.listeners)
	clear(h.conntrack)
	h.nextEphem = 32768
	clear(h.ephemeral)
	clear(h.abstract)
}

// identLocal resolves the credential owning a local socket. It shares
// the socket's Groups slice (see Network.Ident): Listen and
// allocEphemeral store their own copies, and nothing writes them.
func (h *Host) identLocal(proto Proto, port int) (ids.Credential, error) {
	if l, ok := h.listeners[portKey{proto, port}]; ok {
		return l.cred, nil
	}
	if h.ephemeral != nil {
		if c, ok := h.ephemeral[port]; ok {
			return c, nil
		}
	}
	return ids.Credential{}, fmt.Errorf("%w: %s %s:%d", ErrIdentUnavailable, proto, h.name, port)
}

// allocEphemeral reserves an ephemeral source port bound to cred.
func (h *Host) allocEphemeral(cred ids.Credential) (int, error) {
	if h.ephemeral == nil {
		h.ephemeral = make(map[int]ids.Credential)
	}
	for i := 0; i < 28000; i++ {
		p := int(h.nextEphem)
		h.nextEphem++
		if h.nextEphem > 60999 {
			h.nextEphem = 32768
		}
		if _, used := h.ephemeral[p]; !used {
			if _, bound := h.listeners[portKey{TCP, p}]; !bound {
				h.ephemeral[p] = h.net.cloneCred(cred)
				h.touch()
				return p, nil
			}
		}
	}
	return 0, ErrNoEphemeral
}

func (h *Host) releaseEphemeral(port int) {
	delete(h.ephemeral, port)
}

// cloneCred copies cred with its groups carved from the gid slab.
func (n *Network) cloneCred(cred ids.Credential) ids.Credential {
	cred.Groups = n.gids.Clone(cred.Groups)
	return cred
}
