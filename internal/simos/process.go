// Package simos implements the per-node operating-system substrate of
// the simulated HPC system: process tables, credentials, login
// sessions with a PAM-like hook stack, and /dev device nodes.
//
// It deliberately models only what the paper's separation mechanisms
// need: who is running what (for /proc visibility and the user-based
// firewall's ident queries), how logins are gated (pam_slurm), and how
// device permissions bind GPUs to users.
package simos

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/slab"
)

// ProcState is the lifecycle state of a simulated process.
type ProcState int

// Process states. StateDead exists for rendering and external
// bookkeeping only: the table deletes dead processes outright
// (presence in the table means live), so no published entry ever
// carries it.
const (
	StateRunning ProcState = iota
	StateSleeping
	StateZombie
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateRunning:
		return "R"
	case StateSleeping:
		return "S"
	case StateZombie:
		return "Z"
	default:
		return "X"
	}
}

// Process is one entry in a node's process table. Cmdline may contain
// secrets (paths, tokens) — exactly the information leak hidepid=2
// exists to stop (paper §IV-A, CVE-2020-27746).
type Process struct {
	PID     ids.PID
	PPID    ids.PID
	Cred    ids.Credential
	Comm    string   // executable name, like /proc/<pid>/comm
	Cmdline []string // full argv, like /proc/<pid>/cmdline
	State   ProcState
	Start   int64 // logical start time
	RSS     int64 // resident memory, bytes (for OOM modelling)
	JobID   int   // owning scheduler job, 0 = none (daemon/login shell)
	Daemon  bool  // system daemon (owned by root or service users)
}

// Clone returns a deep copy safe to hand to observers.
func (p *Process) Clone() *Process {
	np := *p
	np.Cred = p.Cred.Clone()
	np.Cmdline = append([]string(nil), p.Cmdline...)
	return &np
}

// Table is a node's process table. All methods are safe for
// concurrent use.
//
// Entries stored in the table are immutable until Reset: the only
// mutations are Spawn/SpawnDaemon/SpawnJob, which publish a fresh
// entry, and Exit/ExitJob/Kill/KillUser, which delete one; nothing
// writes through a published pointer, and no entry's storage is
// reused before the next Reset. That lets the table publish one
// generation-counted, copy-on-write snapshot — a cached sorted
// []*Process — that every reader of All/Visit shares with zero
// per-call cloning. Values returned by All, Visit and Lookup are
// therefore shared and MUST be treated as read-only; use Clone (or
// Get, which clones) before modifying one. They also MUST NOT be kept
// across Reset, which recycles the storage of every task entry
// spawned since the pristine mark: clone what must outlive the trial.
type Table struct {
	mu      sync.RWMutex
	nextPID ids.PID
	procs   map[ids.PID]*Process
	clock   func() int64
	gen     uint64     // bumped on every mutation
	snap    []*Process // cached PID-sorted snapshot, shared with readers
	snapGen uint64     // generation snap was built at; valid iff == gen
	// jobs holds every SpawnJob entry, with its argv inline. Within a
	// trial an entry is never reused, even after ExitJob, so a stale
	// snapshot keeps showing it intact. Reset zeroes the entries carved
	// since the pristine mark and rewinds to it, so a pooled trial's
	// job starts reuse the previous trial's storage and allocate
	// nothing once the chunks cover the busiest trial.
	jobs slab.Slab[jobProcess]
	// arena is the current allocation chunk for the long-lived daemon
	// population: daemon *Process entries point into such a chunk
	// instead of being individual heap objects. Entries are handed out
	// append-only and a full chunk is replaced (never grown), so
	// published pointers stay stable; a chunk is reclaimed when nothing
	// references it anymore. At 10k-node scale the construction daemons
	// alone are 30k entries, and a node's three share one 4-entry chunk.
	// It is not a slab.Slab: a slab's header and chunk list cost each of
	// 10k tables about 56 bytes more than this one slice, and daemons
	// respawned mid-trial (Node.Restore) would need rewinding too.
	arena []Process
	// Pristine mark for the trial-lifecycle Reset contract: the entry
	// set, PID counter and generation recorded by MarkPristine. Because
	// published entries are immutable (mutations only insert and delete
	// entries), the mark can share *Process pointers with the live map
	// — pointer equality at Reset time proves an entry is untouched.
	pristine    map[ids.PID]*Process
	pristinePID ids.PID
	pristineGen uint64
}

// Process-table errors.
var (
	ErrNoSuchProcess = errors.New("simos: no such process")
	ErrPermission    = errors.New("simos: operation not permitted")
)

// NewTable returns an empty process table. clock supplies logical
// time; pass nil for a zero clock.
func NewTable(clock func() int64) *Table {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Table{nextPID: 1, procs: make(map[ids.PID]*Process), clock: clock}
}

// dirtyLocked marks the published snapshot stale. Caller holds t.mu
// for writing.
func (t *Table) dirtyLocked() { t.gen++ }

// allocLocked hands out a stable slot from the daemon arena, growing
// chunk sizes 4→256 so an idle node (three base daemons) pays one tiny
// chunk while construction-heavy tables amortize to one allocation per
// 256 daemons. Caller holds t.mu for writing.
func (t *Table) allocLocked() *Process {
	if len(t.arena) == cap(t.arena) {
		size := cap(t.arena) * 2
		if size == 0 {
			size = 4
		}
		if size > 256 {
			size = 256
		}
		t.arena = make([]Process, 0, size)
	}
	t.arena = t.arena[:len(t.arena)+1]
	return &t.arena[len(t.arena)-1]
}

// daemonCred is the shared root credential every SpawnDaemon entry
// carries. Published entries are read-only by the table contract (and
// Get/Spawn clone before handing out mutable copies), so one shared
// Groups slice serves every daemon on every node.
var daemonCred = ids.Credential{UID: ids.Root, EGID: ids.RootGroup, Groups: []ids.GID{ids.RootGroup}}

// daemonCmdlines interns the argv slices of base daemons: the same
// few cmdlines repeat identically across every node of the cluster,
// and published entries are read-only, so they can share one slice.
var daemonCmdlines sync.Map // string key → []string

// MarkPristine records the table's current state as the target of
// Reset. Entries are shared by pointer with the live map: the table's
// copy-on-write contract (published entries are immutable) makes the
// shared mark exact without cloning anything. Task entries spawned
// before the mark are never recycled.
func (t *Table) MarkPristine() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs.Mark()
	t.pristine = make(map[ids.PID]*Process, len(t.procs))
	for pid, p := range t.procs {
		t.pristine[pid] = p
	}
	t.pristinePID = t.nextPID
	t.pristineGen = t.gen
}

// Reset rewinds the table to the state MarkPristine recorded (or to
// empty, if no mark was taken): the pristine entry set is reinstalled,
// the PID counter restarts so respawned processes get the same PIDs a
// fresh table would hand out, and the generation drops back to the
// mark so the table is indistinguishable from a newly constructed one.
// The fast path — nothing spawned, exited or mutated since the mark —
// returns at once. Reset allocates nothing: it zeroes the task entries
// spawned since the mark and rewinds their storage for the next trial.
// Snapshots and entries handed out before the Reset are therefore no
// longer valid: a task entry they share may be zeroed or reused by a
// later SpawnJob. Entries present at the mark stay intact.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen == t.pristineGen {
		// Generation equality proves no mutation happened since the
		// mark (every mutation bumps gen, nothing rewinds it mid-trial),
		// so the entry set, PID counter and snapshot cache are all
		// already pristine. This is the O(1) path a pooled XXL trial
		// takes for every node it never touched.
		return
	}
	if len(t.procs) == len(t.pristine) {
		same := true
		for pid, p := range t.pristine {
			if t.procs[pid] != p {
				same = false
				break
			}
		}
		if same {
			t.jobs.Reset()
			t.nextPID = t.pristinePID
			if t.nextPID == 0 {
				t.nextPID = 1
			}
			// Rewinding gen invalidates the snapshot cache explicitly:
			// a snapshot cached at a post-mark generation would otherwise
			// be served again when the counter climbs back to that value.
			t.gen = t.pristineGen
			t.snap = nil
			t.snapGen = 0
			return
		}
	}
	clear(t.procs)
	t.jobs.Reset()
	for pid, p := range t.pristine {
		t.procs[pid] = p
	}
	t.nextPID = t.pristinePID
	if t.nextPID == 0 {
		t.nextPID = 1 // no mark taken: empty table, PIDs restart at 1
	}
	t.gen = t.pristineGen
	t.snap = nil
	t.snapGen = 0
}

// Generation returns the table's mutation counter. Two equal
// Generation readings bracket a window in which no mutation happened
// and every snapshot handed out was identical.
func (t *Table) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// snapshot returns the shared PID-sorted slice of live processes,
// rebuilding it only when a mutation invalidated the cached one. The
// returned slice and its entries are immutable.
func (t *Table) snapshot() []*Process {
	t.mu.RLock()
	if t.snap != nil && t.snapGen == t.gen {
		s := t.snap
		t.mu.RUnlock()
		return s
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rebuildLocked()
}

// rebuildLocked (re)builds the snapshot cache if stale. Caller holds
// t.mu for writing.
func (t *Table) rebuildLocked() []*Process {
	if t.snap != nil && t.snapGen == t.gen {
		return t.snap
	}
	out := make([]*Process, 0, len(t.procs))
	for _, p := range t.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	t.snap = out
	t.snapGen = t.gen
	return out
}

// cmdline returns the argv of a new process, comm followed by argv, in
// one allocation.
func cmdline(comm string, argv []string) []string {
	c := make([]string, 1+len(argv))
	c[0] = comm
	copy(c[1:], argv)
	return c
}

// Spawn creates a process owned by cred. ppid 0 means "init".
func (t *Table) Spawn(cred ids.Credential, ppid ids.PID, comm string, argv ...string) *Process {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &Process{
		PID:     t.nextPID,
		PPID:    ppid,
		Cred:    cred.Clone(),
		Comm:    comm,
		Cmdline: cmdline(comm, argv),
		State:   StateRunning,
		Start:   t.clock(),
	}
	t.nextPID++
	t.procs[p.PID] = p
	t.dirtyLocked()
	return p.Clone()
}

// jobProcess is a task entry with its argv inline, so that a task
// with at most one argument needs no storage beyond its slab slot.
type jobProcess struct {
	Process
	argv [2]string
}

// SpawnJob publishes the task process of scheduler job jobID: a child
// of init that already carries the job and its resident memory, so a
// job start costs one entry, one lock and one generation bump per
// node. The entry shares cred.Groups instead of cloning it: the caller
// must never mutate it afterwards (the scheduler passes its private
// job credential, which nothing writes after Submit). The entry is
// carved from the table's job slab, so with at most one argument a
// job start allocates nothing once a previous trial has sized the
// slab; the entry stays intact after ExitJob until the next Reset.
func (t *Table) SpawnJob(cred ids.Credential, jobID int, rss int64, comm string, argv ...string) ids.PID {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The slot comes zeroed, so fields are stored one by one: a
	// whole-struct store would pay a bulk write barrier and a block copy.
	e := &t.jobs.Take(1)[0]
	e.PID = t.nextPID
	e.PPID = 1
	e.Cred = cred
	e.Comm = comm
	e.State = StateRunning
	e.Start = t.clock()
	e.RSS = rss
	e.JobID = jobID
	// Clip so that a reader's append cannot write into the inline array;
	// past one argument, append moves the argv to the heap by itself.
	e.Cmdline = slices.Clip(append(append(e.argv[:0], comm), argv...))
	p := &e.Process
	t.nextPID++
	t.procs[p.PID] = p
	t.dirtyLocked()
	return p.PID
}

// SpawnDaemon creates a system daemon process (root-owned unless a
// different cred is given); daemons are what hidepid=2 hides alongside
// other users' processes.
func (t *Table) SpawnDaemon(comm string, argv ...string) *Process {
	key := comm
	for _, a := range argv {
		key += "\x00" + a
	}
	var cmdline []string
	if v, ok := daemonCmdlines.Load(key); ok {
		cmdline = v.([]string)
	} else {
		cmdline = append([]string{comm}, argv...)
		daemonCmdlines.Store(key, cmdline)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.allocLocked()
	*p = Process{
		PID:     t.nextPID,
		PPID:    1,
		Cred:    daemonCred,
		Comm:    comm,
		Cmdline: cmdline,
		State:   StateSleeping,
		Start:   t.clock(),
		Daemon:  true,
	}
	t.nextPID++
	t.procs[p.PID] = p
	t.dirtyLocked()
	return p.Clone()
}

// Get returns a copy of the process with the given pid. Visibility
// filtering is the job of package procfs; Get is the raw kernel view.
func (t *Table) Get(pid ids.PID) (*Process, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Dead processes are removed from the map outright (Exit/Kill*),
	// so presence alone means live.
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	return p.Clone(), nil
}

// Lookup returns the shared immutable entry for pid, or false if no
// such live process exists. The result is read-only (see the Table
// contract); use Get for a private deep copy. Lookup exists so
// permission checks can run before any clone is paid for.
func (t *Table) Lookup(pid ids.PID) (*Process, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.procs[pid]
	return p, ok
}

// Exit removes a process from the table. Snapshots published before
// the exit keep showing the process (immutably) until refreshed.
func (t *Table) Exit(pid ids.PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.procs[pid]; !ok {
		return fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	delete(t.procs, pid)
	t.dirtyLocked()
	return nil
}

// ExitJob removes the task process pid of scheduler job jobID. It is
// a no-op, reporting false, when pid is gone or no longer that job's:
// a node crash may already have removed it.
func (t *Table) ExitJob(pid ids.PID, jobID int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok || p.JobID != jobID || jobID == 0 {
		return false
	}
	delete(t.procs, pid)
	t.dirtyLocked()
	return true
}

// Kill terminates a process on behalf of actor. Classic Unix rule:
// only the owner or root may signal a process.
func (t *Table) Kill(actor ids.Credential, pid ids.PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	if !actor.IsRoot() && actor.UID != p.Cred.UID {
		return fmt.Errorf("%w: uid %d cannot kill pid %d (uid %d)", ErrPermission, actor.UID, pid, p.Cred.UID)
	}
	delete(t.procs, pid)
	t.dirtyLocked()
	return nil
}

// KillUser terminates every non-daemon process of uid (node failure /
// cleanup modelling). Returns the number killed.
func (t *Table) KillUser(uid ids.UID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for pid, p := range t.procs {
		if p.Cred.UID == uid && !p.Daemon {
			delete(t.procs, pid)
			n++
		}
	}
	if n > 0 {
		t.dirtyLocked()
	}
	return n
}

// All returns every live process sorted by PID — the unfiltered
// kernel view (what root sees). The slice is the table's shared
// snapshot: entries are immutable and must be treated as read-only
// (Clone one before modifying it).
func (t *Table) All() []*Process {
	return t.snapshot()
}

// Visit calls f on every live process in PID order, stopping early if
// f returns false. It iterates the shared snapshot, so it allocates
// nothing and holds no lock while f runs — f may call back into the
// table. The *Process passed to f is shared and read-only.
func (t *Table) Visit(f func(p *Process) bool) {
	for _, p := range t.snapshot() {
		if !f(p) {
			return
		}
	}
}

// ByUser returns live processes owned by uid, sorted by PID. Like
// All, the entries are shared immutable snapshot entries.
func (t *Table) ByUser(uid ids.UID) []*Process {
	var out []*Process
	for _, p := range t.snapshot() {
		if p.Cred.UID == uid {
			out = append(out, p)
		}
	}
	return out
}

// TotalRSS sums resident memory across all live processes.
func (t *Table) TotalRSS() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var sum int64
	for _, p := range t.procs {
		sum += p.RSS
	}
	return sum
}

// Len returns the number of live processes.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.procs)
}
