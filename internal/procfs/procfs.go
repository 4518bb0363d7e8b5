// Package procfs implements the /proc visibility model of the paper's
// process-separation measure (§IV-A): the hidepid= mount option, the
// gid= exemption, and the seepid escalation tool for HPC support
// personnel.
//
// Semantics follow Linux proc(5):
//
//	hidepid=0  classic behaviour, everybody sees everything
//	hidepid=1  other users' /proc/<pid> directories still appear in a
//	           directory listing, but their contents (cmdline, status,
//	           environ, ...) cannot be read
//	hidepid=2  other users' /proc/<pid> directories are invisible
//
// A process whose observer carries the exempt gid (the gid= mount
// flag) bypasses the restriction entirely.
//
// # Redaction contract (hidepid=1)
//
// List shows a visible-but-unreadable pid as a redacted stub
// modelling stat(2) on a /proc/<pid> directory whose contents are
// protected. This simulation's contract deliberately keeps three
// fields: the PID, the executable name (Comm) and the run State —
// Comm is a modelling choice, slightly more generous than Linux,
// where comm sits inside the protected directory; it stands in for
// the coarse existence/owner metadata a dir stat discloses. The
// sensitive fields are always zeroed: Cmdline, the owning
// Credential, RSS and the scheduler JobID. No field of the stub may
// carry the secret-bearing data (argv, identity, accounting) that
// hidepid exists to protect.
//
// List and Readable filter on the process table's shared snapshot
// (simos.Table.Visit) and return the table's own entries, which are
// read-only and valid until the table's next Reset (see simos.Table):
// a listing allocates its result slice and nothing per readable
// entry, and under hidepid=2 a foreign observer's `ps` pass allocates
// nothing at all. Denied ReadCmdline probes are allocation-free.
//
// # Trial-lifecycle Reset contract
//
// A Mount is a stateless view: its only fields are the mount options
// (HidePID, ExemptGID — fixed at cluster assembly) and the table it
// wraps. Rewinding a cluster to its pristine state therefore needs no
// procfs-side work beyond resetting the underlying simos.Table; the
// mount then serves the pristine process set with unchanged options.
package procfs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ids"
	"repro/internal/simos"
)

// HidePID is the /proc mount's hidepid= option.
type HidePID int

// hidepid levels.
const (
	HidePIDOff    HidePID = 0
	HidePIDNoRead HidePID = 1
	HidePIDInvis  HidePID = 2
)

// String renders the symbolic level name (profile diffs and the E16
// ablation table print these instead of raw mount-option ints).
func (h HidePID) String() string {
	switch h {
	case HidePIDOff:
		return "off"
	case HidePIDNoRead:
		return "noread"
	case HidePIDInvis:
		return "invisible"
	default:
		return fmt.Sprintf("hidepid=%d", int(h))
	}
}

// Mount is one node's /proc mount configuration.
type Mount struct {
	HidePID   HidePID
	ExemptGID ids.GID // gid= flag; NoGID means no exemption configured
	table     *simos.Table
}

// Procfs errors.
var (
	ErrHidden    = errors.New("procfs: permission denied") // EPERM-like: dir exists but unreadable
	ErrNotFound  = errors.New("procfs: no such process")   // ENOENT-like: invisible under hidepid=2
	ErrNotExempt = errors.New("procfs: user not whitelisted for seepid")
)

// NewMount wraps a node's process table with a /proc view.
func NewMount(table *simos.Table, hidepid HidePID, exemptGID ids.GID) *Mount {
	return &Mount{HidePID: hidepid, ExemptGID: exemptGID, table: table}
}

// exempt reports whether the observer bypasses hidepid restrictions:
// root always, and holders of the exempt gid when one is configured.
func (m *Mount) exempt(observer ids.Credential) bool {
	if observer.IsRoot() {
		return true
	}
	return m.ExemptGID != ids.NoGID && observer.InGroup(m.ExemptGID)
}

// visible reports whether observer may see that the pid exists in a
// directory listing of /proc. exempt is the precomputed result of
// m.exempt(observer), hoisted out of per-process loops.
func (m *Mount) visible(exempt bool, observer ids.Credential, p *simos.Process) bool {
	if exempt || p.Cred.UID == observer.UID {
		return true
	}
	return m.HidePID < HidePIDInvis
}

// readable reports whether observer may read the contents of
// /proc/<pid>/ (cmdline, status, ...). exempt as in visible.
func (m *Mount) readable(exempt bool, observer ids.Credential, p *simos.Process) bool {
	if exempt || p.Cred.UID == observer.UID {
		return true
	}
	return m.HidePID == HidePIDOff
}

// List returns the processes whose /proc/<pid> directories appear to
// the observer, sorted by PID — the readdir view `ps` uses. The
// exempt-gid check runs once per call and the filter runs on the
// shared table snapshot. Readable entries are the table's own,
// read-only ones; a foreign observer under hidepid=2 allocates
// nothing.
func (m *Mount) List(observer ids.Credential) []*simos.Process {
	exempt := m.exempt(observer)
	var out []*simos.Process
	m.table.Visit(func(p *simos.Process) bool {
		switch {
		case !m.visible(exempt, observer, p):
		case m.readable(exempt, observer, p):
			out = m.appendEntry(out, p)
		default:
			// Visible but unreadable (hidepid=1, foreign pid): the
			// directory appears in readdir but its contents are
			// protected, so the entry is the redacted stub — never the
			// secret-bearing entry.
			out = m.appendEntry(out, &simos.Process{PID: p.PID, Comm: p.Comm, State: p.State})
		}
		return true
	})
	return out
}

// appendEntry appends p to a listing, sizing it for the whole table on
// its first entry so a listing allocates its slice once.
func (m *Mount) appendEntry(out []*simos.Process, p *simos.Process) []*simos.Process {
	if out == nil {
		out = make([]*simos.Process, 0, m.table.Len())
	}
	return append(out, p)
}

// Readable returns the processes the observer can fully inspect —
// what a `ps auxww` that reads each cmdline would actually print. Like
// List, it returns the table's own read-only entries.
func (m *Mount) Readable(observer ids.Credential) []*simos.Process {
	exempt := m.exempt(observer)
	var out []*simos.Process
	m.table.Visit(func(p *simos.Process) bool {
		if m.readable(exempt, observer, p) {
			out = m.appendEntry(out, p)
		}
		return true
	})
	return out
}

// ReadCmdline models reading /proc/<pid>/cmdline — the exact leak
// path of CVE-2020-27746-style disclosures.
func (m *Mount) ReadCmdline(observer ids.Credential, pid ids.PID) (string, error) {
	// Shared-entry lookup: the denial paths (the attack probes of E2)
	// never copy the secret-bearing cmdline they refuse to reveal.
	p, ok := m.table.Lookup(pid)
	if !ok {
		return "", ErrNotFound
	}
	exempt := m.exempt(observer)
	if !m.visible(exempt, observer, p) {
		return "", ErrNotFound
	}
	if !m.readable(exempt, observer, p) {
		return "", ErrHidden
	}
	return strings.Join(p.Cmdline, " "), nil
}

// Seepid implements the paper's seepid tool: a whitelisted HPC
// support person gets the exempt supplemental group added to their
// session credential so they can attribute load to users without full
// administrator rights. Returns the augmented credential.
type Seepid struct {
	ExemptGID ids.GID
	whitelist map[ids.UID]bool
}

// NewSeepid builds the tool around the /proc exempt gid and a
// whitelist of support staff UIDs.
func NewSeepid(exemptGID ids.GID, staff ...ids.UID) *Seepid {
	wl := make(map[ids.UID]bool, len(staff))
	for _, u := range staff {
		wl[u] = true
	}
	return &Seepid{ExemptGID: exemptGID, whitelist: wl}
}

// Elevate returns cred with the exempt gid appended, or an error if
// the caller is not whitelisted.
func (s *Seepid) Elevate(cred ids.Credential) (ids.Credential, error) {
	if !s.whitelist[cred.UID] {
		return cred, fmt.Errorf("%w: uid %d", ErrNotExempt, cred.UID)
	}
	nc := cred.Clone()
	nc.Groups = append(nc.Groups, s.ExemptGID)
	return nc, nil
}

// Drop returns cred with the exempt gid removed (leaving the seepid
// session).
func (s *Seepid) Drop(cred ids.Credential) ids.Credential {
	nc := cred.Clone()
	out := nc.Groups[:0]
	for _, g := range nc.Groups {
		if g != s.ExemptGID {
			out = append(out, g)
		}
	}
	nc.Groups = out
	return nc
}
