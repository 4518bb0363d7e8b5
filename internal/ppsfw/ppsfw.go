// Package ppsfw implements the comparator the paper argues against in
// §IV-D: a traditional ports/protocols/services (PPS) firewall that
// decides by destination port and protocol, with no notion of user.
//
// The paper's criticism, reproduced as experiment E13:
//
//	"A traditional PPS firewall would have no way to make an
//	intelligent decision about a traffic flow consisting of a novel
//	application still in its 'version 0' phase of development, but
//	this is no impediment to making user-based decisions."
//
// A PPS firewall faces a dilemma on an HPC system: either the novel
// app's port is not in the approved service list (the user's own
// legitimate traffic is blocked), or the admin opens a wide port
// range (cross-user traffic flows freely, because the rule cannot see
// users). The UBF suffers neither failure.
package ppsfw

import (
	"fmt"

	"repro/internal/netsim"
)

// Rule approves a destination port range for a protocol.
type Rule struct {
	Name     string
	Proto    netsim.Proto
	PortLow  int
	PortHigh int
}

// Matches reports whether the rule admits the flow.
func (r Rule) Matches(f netsim.FlowTuple) bool {
	return f.Proto == r.Proto && f.DstPort >= r.PortLow && f.DstPort <= r.PortHigh
}

func (r Rule) String() string {
	return fmt.Sprintf("%s %s %d-%d", r.Name, r.Proto, r.PortLow, r.PortHigh)
}

// Firewall is a default-deny PPS firewall. It takes no lock: the
// cluster's owner goroutine calls it (DESIGN.md §7, "One owner per
// cluster").
type Firewall struct {
	rules []Rule
}

// New creates an empty (default-deny) firewall.
func New() *Firewall { return &Firewall{} }

// Approve adds a service rule, the admin change-request workflow of a
// traditional enterprise firewall.
func (fw *Firewall) Approve(name string, proto netsim.Proto, low, high int) {
	fw.rules = append(fw.rules, Rule{Name: name, Proto: proto, PortLow: low, PortHigh: high})
}

// Hook returns the nfqueue decision function. Note what it does NOT
// look at: who owns either socket.
func (fw *Firewall) Hook() netsim.HookFunc {
	return func(_ *netsim.Network, flow netsim.FlowTuple) netsim.Verdict {
		for _, r := range fw.rules {
			if r.Matches(flow) {
				return netsim.Accept
			}
		}
		return netsim.Drop
	}
}

// InstallOn wires the firewall onto a host, inspecting all ports.
func (fw *Firewall) InstallOn(h *netsim.Host) {
	h.SetFirewall(fw.Hook(), nil)
}
