// Package ubf implements the paper's User-Based Firewall (§IV-D and
// reproducibility appendix; refs [30], [31]): a userspace daemon that
// receives NEW TCP/UDP connection attempts from the kernel's nfqueue
// hook and decides them by *user identity* rather than by
// port/protocol/service.
//
// The decision procedure, verbatim from the paper:
//
//	"During the establishment of a new connection an ident-like query
//	is sent from the receiving system to the initiating system to get
//	user information, and the same query run locally. The connection
//	is allowed if both the receiving and the initiating processes are
//	owned by the same user or if the connector is a member of the
//	primary group of the listener process."
//
// The listener's primary group is its *effective* GID, switchable
// with newgrp/sg — that is the opt-in lever for project-group
// services. Both ident queries go through netsim's Network.Ident,
// which returns the socket owner's full credential, supplementary
// groups included, so the group rule sees every group the connector
// belongs to.
package ubf

import (
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// Config tunes the daemon.
type Config struct {
	// CacheVerdicts memoizes (srcUID, dstUID, dstEGID) decisions, the
	// way the production daemon avoids re-running ident for repeat
	// peers. Ablated in experiment E8.
	CacheVerdicts bool
}

// Daemon is the UBF userspace decision engine. One daemon can serve
// every host's hook (it is stateless apart from the cache), matching
// the paper's per-node daemons that share identical configuration.
// It fails closed: a flow whose ident query fails is dropped. It is
// not safe for concurrent use; the cluster's owner calls it (DESIGN.md
// §7, "One owner per cluster").
type Daemon struct {
	cfg Config

	cache map[cacheKey]netsim.Verdict

	// Counters for the overhead experiment (E8).
	Decisions atomic.Int64
	CacheHits atomic.Int64
	Allowed   atomic.Int64
	Denied    atomic.Int64
}

type cacheKey struct {
	src        ids.UID
	dst        ids.UID
	egid       ids.GID
	srcInGroup bool
}

// New creates a daemon.
func New(cfg Config) *Daemon {
	return &Daemon{cfg: cfg, cache: make(map[cacheKey]netsim.Verdict)}
}

// Hook returns the netsim.HookFunc to install on each host's
// firewall. It performs the two ident queries and applies the rule.
func (d *Daemon) Hook() netsim.HookFunc {
	return func(net *netsim.Network, flow netsim.FlowTuple) netsim.Verdict {
		d.Decisions.Add(1)

		// "the same query run locally": listener side.
		dstCred, errDst := net.Ident(flow.DstHost, flow.Proto, flow.DstPort)
		// "an ident-like query is sent ... to the initiating system":
		// connector side.
		srcCred, errSrc := net.Ident(flow.SrcHost, flow.Proto, flow.SrcPort)
		if errDst != nil || errSrc != nil {
			return netsim.Drop
		}

		key := cacheKey{src: srcCred.UID, dst: dstCred.UID, egid: dstCred.EGID, srcInGroup: srcCred.InGroup(dstCred.EGID)}
		if d.cfg.CacheVerdicts {
			if v, hit := d.cache[key]; hit {
				d.CacheHits.Add(1)
				d.count(v)
				return v
			}
		}

		verdict := decide(srcCred, dstCred)
		if d.cfg.CacheVerdicts {
			d.cache[key] = verdict
		}
		d.count(verdict)
		return verdict
	}
}

// decide applies the paper's rule.
func decide(src, dst ids.Credential) netsim.Verdict {
	if src.UID == dst.UID || src.InGroup(dst.EGID) {
		return netsim.Accept
	}
	return netsim.Drop
}

func (d *Daemon) count(v netsim.Verdict) {
	if v == netsim.Accept {
		d.Allowed.Add(1)
	} else {
		d.Denied.Add(1)
	}
}

// Reset rewinds the daemon to its freshly-constructed state: the
// verdict cache and all counters are cleared. The configuration and
// any hooks already installed on hosts survive: the hook closure reads
// the daemon's live state, so a reset daemon keeps filtering with an
// empty cache, exactly like a fresh one.
func (d *Daemon) Reset() {
	clear(d.cache)
	d.Decisions.Store(0)
	d.CacheHits.Store(0)
	d.Allowed.Store(0)
	d.Denied.Store(0)
}

// InstallOn wires the daemon onto a host with the paper's standard
// port policy: inspect unprivileged ports (>= 1024) only.
func (d *Daemon) InstallOn(h *netsim.Host) {
	h.SetFirewall(d.Hook(), func(port int) bool { return port >= 1024 })
}
