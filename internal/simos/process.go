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

	"repro/internal/ids"
	"repro/internal/slab"
)

// ProcState is the lifecycle state of a simulated process.
type ProcState int

// Process states. The table deletes dead processes outright
// (presence in the table means live), so no state marks one dead.
const (
	StateRunning ProcState = iota
	StateSleeping
	StateZombie
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

// Table is a node's process table. It is not safe for concurrent use;
// the cluster's owner calls it (DESIGN.md §7, "One owner per
// cluster").
//
// Entries stored in the table are immutable until Reset: the only
// mutations are Spawn/SpawnJob (and a node's base daemons), which
// publish a fresh entry, and ExitJob (and a node crash), which
// remove one; nothing writes through a published pointer, and no
// entry's storage is reused before the next Reset. That lets the
// table publish one generation-counted, copy-on-write snapshot — a
// cached sorted []*Process — that every reader of Visit shares with
// zero per-call cloning. Values returned by Spawn, Visit and Lookup are therefore
// shared and MUST be treated as read-only. They also MUST NOT be kept
// across Reset, which recycles the storage of every entry spawned
// since the pristine mark: copy what must outlive the trial.
type Table struct {
	nextPID ids.PID
	// slots holds the table's entries in PID order. PIDs only grow
	// between Resets, so a spawn appends. An exit clears its slot's
	// pointer instead of moving the tail; an append that finds the
	// slice full compacts the exited slots away first, so capacity
	// follows the live count rather than the number of PIDs spawned.
	// Past len(slots) the backing array holds only zero slots.
	slots   []slot
	live    int // slots with a non-nil entry
	clock   func() int64
	gen     uint64     // bumped on every mutation
	snap    []*Process // cached PID-sorted snapshot, shared with readers
	snapGen uint64     // generation snap was built at; valid iff == gen
	// jobs holds every SpawnJob entry and, once the table has been
	// Reset, every Spawn entry, each with a command line of up to two
	// words inline, and every daemon spawned after the pristine mark
	// (Node.Restore); argv, made by the first longer command line,
	// holds those. Within a trial an entry is never reused, even after
	// it exits, so a stale snapshot keeps showing it intact. Reset
	// zeroes the entries carved since the pristine mark and rewinds to
	// it, so a pooled trial's logins, job starts and restores reuse the
	// previous trial's storage and allocate nothing once the chunks
	// cover the busiest trial.
	jobs slab.Slab[jobProcess]
	argv *slab.Slab[string]
	// arena is the current allocation chunk for the daemons spawned
	// before the pristine mark: such *Process entries point into a
	// chunk instead of being individual heap objects. Entries are
	// handed out append-only and a full chunk is replaced (never
	// grown), so published pointers stay stable; a chunk is reclaimed
	// when nothing references it anymore. At 10k-node scale the
	// construction daemons alone are 30k entries, and a node's three
	// share one 4-entry chunk. It is not the job slab: most of those
	// nodes never start a job, and a slab chunk of jobProcess entries
	// with their inline argv would cost each of them more.
	arena []Process
	// Pristine mark for the trial-lifecycle Reset contract: the live
	// slots, PID counter and generation recorded by MarkPristine.
	// Because published entries are immutable (mutations only publish
	// and clear slots), the mark shares *Process pointers with the
	// live slots.
	pristine    []slot
	pristinePID ids.PID
	pristineGen uint64
	marked      bool
}

// slot is one process-table entry: p is nil once the process exited.
type slot struct {
	pid ids.PID
	p   *Process
}

// ErrPermission is a refused device or ownership operation.
var ErrPermission = errors.New("simos: operation not permitted")

// NewTable returns an empty process table. clock supplies logical
// time; pass nil for a zero clock.
func NewTable(clock func() int64) *Table {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Table{nextPID: 1, slots: make([]slot, 0, 4), clock: clock}
}

// lookup returns the live entry for pid, or nil, and the index of its
// slot, found by binary search.
func (t *Table) lookup(pid ids.PID) (*Process, int) {
	lo, hi := 0, len(t.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.slots[m].pid < pid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t.slots) && t.slots[lo].pid == pid {
		return t.slots[lo].p, lo
	}
	return nil, lo
}

// publish appends p, whose PID is above every slot's, and consumes its
// PID. A full slice is compacted first when at least a quarter of its
// slots are exited: a compaction over n slots then makes room for at
// least n/4 appends, and a table whose live count stays under three
// quarters of its capacity never grows.
func (t *Table) publish(p *Process) {
	if n := len(t.slots); n == cap(t.slots) && 4*(n-t.live) >= n {
		k := 0
		for _, sl := range t.slots {
			if sl.p != nil {
				t.slots[k] = sl
				k++
			}
		}
		clear(t.slots[k:])
		t.slots = t.slots[:k]
	}
	t.slots = append(t.slots, slot{pid: p.PID, p: p})
	t.live++
	t.nextPID++
	t.gen++
}

// remove clears slot i, which holds a live entry.
func (t *Table) remove(i int) {
	t.slots[i].p = nil
	t.live--
	t.gen++
}

// alloc hands out a stable slot from the daemon arena, growing chunk
// sizes 4→256 so an idle node (three base daemons) pays one tiny chunk
// while construction-heavy tables amortize to one allocation per 256
// daemons.
func (t *Table) alloc() *Process {
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

// daemonCred is the shared root credential every daemon entry
// carries. Published entries are read-only by the table contract, so
// one shared Groups slice serves every daemon on every node.
var daemonCred = ids.Credential{UID: ids.Root, EGID: ids.RootGroup, Groups: []ids.GID{ids.RootGroup}}

// baseDaemons are the cmdlines of the baseline daemons every Linux
// node runs: they are what users see in `ps` when hidepid is off. The
// same cmdlines repeat on every node of the cluster, and published
// entries are read-only, so every node's daemons share these slices.
var baseDaemons = [][]string{{"systemd"}, {"sshd"}, {"slurmd", "-D"}}

// MarkPristine records the table's current state as the target of
// Reset. Entries are shared by pointer with the live slots: the
// table's copy-on-write contract (published entries are immutable)
// makes the shared mark exact without cloning anything. Entries
// spawned before the mark are never recycled. A table unchanged since
// its mark (the generation proves it, as in Reset) keeps that mark, so
// re-marking an untouched table is O(1) and allocates nothing.
func (t *Table) MarkPristine() {
	if t.marked && t.gen == t.pristineGen {
		return
	}
	t.jobs.Mark()
	if t.argv != nil {
		t.argv.Mark()
	}
	t.pristine = make([]slot, 0, t.live)
	for _, sl := range t.slots {
		if sl.p != nil {
			t.pristine = append(t.pristine, sl)
		}
	}
	t.pristinePID = t.nextPID
	t.pristineGen = t.gen
	t.marked = true
}

// Reset rewinds the table to the state MarkPristine recorded (or to
// empty, if no mark was taken): the pristine entry set is reinstalled,
// the PID counter restarts so respawned processes get the same PIDs a
// fresh table would hand out, and the generation drops back to the
// mark so the table is indistinguishable from a newly constructed one.
// The fast path — nothing spawned, exited or mutated since the mark —
// returns at once. Reset allocates nothing: it copies the pristine
// slots back over the live ones, and zeroes the entries spawned since
// the mark and rewinds their storage for the next trial. Snapshots and
// entries handed out before the Reset are therefore no longer valid:
// an entry they share may be zeroed or reused by a later spawn.
// Entries present at the mark stay intact.
func (t *Table) Reset() {
	if t.gen == t.pristineGen {
		// Generation equality proves no mutation happened since the
		// mark (every mutation bumps gen, nothing rewinds it mid-trial),
		// so the entry set, PID counter and snapshot cache are all
		// already pristine. This is the O(1) path a pooled XXL trial
		// takes for every node it never touched.
		return
	}
	clear(t.slots)
	t.slots = append(t.slots[:0], t.pristine...)
	t.live = len(t.pristine)
	t.jobs.Reset()
	if t.argv != nil {
		t.argv.Reset()
	}
	t.nextPID = t.pristinePID
	if t.nextPID == 0 {
		t.nextPID = 1 // no mark taken: empty table, PIDs restart at 1
	}
	// Rewinding gen invalidates the snapshot cache explicitly: a
	// snapshot cached at a post-mark generation would otherwise be
	// served again when the counter climbs back to that value.
	t.gen = t.pristineGen
	t.snap = nil
	t.snapGen = 0
}

// snapshot returns the shared PID-sorted slice of live processes,
// rebuilding it (from the slots, already in PID order) only when a
// mutation invalidated the cached one. The returned slice and its
// entries are immutable.
func (t *Table) snapshot() []*Process {
	if t.snap != nil && t.snapGen == t.gen {
		return t.snap
	}
	out := make([]*Process, 0, t.live)
	for _, sl := range t.slots {
		if sl.p != nil {
			out = append(out, sl.p)
		}
	}
	t.snap = out
	t.snapGen = t.gen
	return out
}

// jobProcess is a job-slab entry with room for a two-word command
// line inline, so that a task or a login shell needs no storage beyond
// its slot.
type jobProcess struct {
	Process
	argv [2]string
}

// entry fills e, a zeroed job-slab slot, as a running process for cred
// in every field but RSS and JobID. Its command line (comm, then argv)
// is inline when it fits, else from the argv slab, which a 10k-node
// cluster's tables make only where a longer command runs. Fields are
// stored one by one: a whole-struct store would pay a bulk write
// barrier and a block copy. The entry shares cred.Groups instead of
// cloning it.
func (t *Table) entry(e *jobProcess, cred ids.Credential, ppid ids.PID, comm string, argv []string) *Process {
	e.PID = t.nextPID
	e.PPID = ppid
	e.Cred = cred
	e.Comm = comm
	e.State = StateRunning
	e.Start = t.clock()
	// Both kinds of storage come clipped, so a reader's append cannot
	// write into the inline array or the next entry's command line.
	n := 1 + len(argv)
	var cl []string
	if n <= len(e.argv) {
		cl = e.argv[:n:n]
	} else {
		if t.argv == nil {
			t.argv = new(slab.Slab[string])
		}
		cl = t.argv.Alloc(n)
	}
	cl[0] = comm
	copy(cl[1:], argv)
	e.Cmdline = cl
	return &e.Process
}

// Spawn creates a process owned by cred, ppid 0 meaning "init", and
// returns the published entry: it is read-only, like every entry the
// table hands out (Clone it to change it), and valid until the next
// Reset. The entry shares cred.Groups, which the caller must not write
// afterwards. Once the table has been Reset the entry comes from the
// job slab, so a pooled trial's logins allocate nothing once the slab
// is sized; before, from the heap, so a table that is never Reset
// does not keep its exited shells.
func (t *Table) Spawn(cred ids.Credential, ppid ids.PID, comm string, argv ...string) *Process {
	p := t.entry(&t.jobs.Alloc(1)[0], cred, ppid, comm, argv)
	t.publish(p)
	return p
}

// SpawnJob publishes the task process of scheduler job jobID: a child
// of init that already carries the job and its resident memory, so a
// job start costs one entry and one generation bump per node. Like
// Spawn, the entry shares cred.Groups (the scheduler passes its
// private job credential, which nothing writes after Submit) and comes
// from the job slab, so a job start allocates nothing once a previous
// trial has sized the slab; the entry stays intact after ExitJob until
// the next Reset.
func (t *Table) SpawnJob(cred ids.Credential, jobID int, rss int64, comm string, argv ...string) ids.PID {
	p := t.entry(&t.jobs.Take(1)[0], cred, 1, comm, argv)
	p.RSS = rss
	p.JobID = jobID
	t.publish(p)
	return p.PID
}

// spawnBaseDaemons publishes the base daemons (NewNode, Node.Restore)
// without cloning anything: root-owned system daemons, which hidepid=2
// hides alongside other users' processes.
func (t *Table) spawnBaseDaemons() {
	for _, c := range baseDaemons {
		t.spawnDaemon(c)
	}
}

// spawnDaemon publishes a daemon whose entry shares cmdline (comm
// first). Before the pristine mark the entry comes from the daemon
// arena; after it, from the job slab, which Reset rewinds.
func (t *Table) spawnDaemon(cmdline []string) *Process {
	var p *Process
	if t.marked {
		p = &t.jobs.Take(1)[0].Process
	} else {
		p = t.alloc()
	}
	p.PID = t.nextPID
	p.PPID = 1
	p.Cred = daemonCred
	p.Comm = cmdline[0]
	p.Cmdline = cmdline
	p.State = StateSleeping
	p.Start = t.clock()
	p.Daemon = true
	t.publish(p)
	return p
}

// Lookup returns the shared immutable entry for pid, or false if no
// such live process exists. The result is read-only (see the Table
// contract).
func (t *Table) Lookup(pid ids.PID) (*Process, bool) {
	p, _ := t.lookup(pid)
	return p, p != nil
}

// ExitJob removes the task process pid of scheduler job jobID. It is
// a no-op, reporting false, when pid is gone or no longer that job's:
// a node crash may already have removed it.
func (t *Table) ExitJob(pid ids.PID, jobID int) bool {
	p, i := t.lookup(pid)
	if p == nil || p.JobID != jobID || jobID == 0 {
		return false
	}
	t.remove(i)
	return true
}

// killAll terminates every process in one pass (a node crash) and
// returns the number killed.
func (t *Table) killAll() int {
	n := t.live
	if n > 0 {
		t.gen++
	}
	clear(t.slots)
	t.slots = t.slots[:0]
	t.live = 0
	return n
}

// Visit calls f on every live process in PID order, stopping early if
// f returns false. It iterates the shared snapshot, so it allocates
// nothing and f may call back into the table. The *Process passed to f is shared and read-only.
func (t *Table) Visit(f func(p *Process) bool) {
	for _, p := range t.snapshot() {
		if !f(p) {
			return
		}
	}
}

// Len returns the number of live processes.
func (t *Table) Len() int {
	return t.live
}
