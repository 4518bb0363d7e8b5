package simos

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/ids"
)

// NodeKind distinguishes the node roles the paper discusses: login
// nodes, data-transfer nodes and interactive/debug nodes remain
// multi-user even under whole-node scheduling (paper §IV-B), while
// compute nodes are allocated via the scheduler.
type NodeKind int

// Node kinds.
const (
	Compute NodeKind = iota
	Login
	DataTransfer
	InteractiveDebug
)

func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Login:
		return "login"
	case DataTransfer:
		return "dtn"
	case InteractiveDebug:
		return "debug"
	default:
		return "unknown"
	}
}

// DevNode is a character-special file under /dev. The GPU separation
// measure works by narrowing Group/Mode on these (paper §IV-F).
type DevNode struct {
	Path  string
	Owner ids.UID
	Group ids.GID
	Mode  uint32 // permission bits only, e.g. 0660
}

// Node is one machine in the cluster: its process table, its /dev
// namespace, its memory capacity, and its PAM access hooks. It is not
// safe for concurrent use; the cluster's owner calls it (DESIGN.md §7,
// "One owner per cluster").
type Node struct {
	Name  string
	Kind  NodeKind
	Cores int
	MemB  int64 // physical memory, bytes
	Procs *Table
	dev   map[string]*DevNode
	pam   []PAMHook
	down  bool // set by Crash, cleared by Restore and Reset
}

// Node errors.
var (
	ErrAccessDenied = errors.New("simos: access denied by PAM")
	ErrNodeDown     = errors.New("simos: node is down")
	ErrNoSuchDev    = errors.New("simos: no such device")
)

// PAMHook is one module in a node's login stack. pam_slurm is
// implemented by the scheduler registering a hook that checks for a
// running job (paper §IV-B).
type PAMHook func(node *Node, uid ids.UID) error

// NewNode creates a node with the given geometry. clock supplies
// logical time (may be nil).
func NewNode(name string, kind NodeKind, cores int, memB int64, clock func() int64) *Node {
	n := &Node{
		Name:  name,
		Kind:  kind,
		Cores: cores,
		MemB:  memB,
		Procs: NewTable(clock),
		dev:   make(map[string]*DevNode),
	}
	n.Procs.spawnBaseDaemons()
	// The pristine mark is the three base daemons (PIDs 1..3): Reset
	// rewinds the process table to exactly this state.
	n.Procs.MarkPristine()
	return n
}

// Reset rewinds the node to its marked state: up (not crashed),
// process table back to its pristine mark (the base daemons, plus
// whatever was spawned before a later MarkPristine) with PID numbering
// rewound. Construction-time wiring survives: PAM hooks
// stay registered (the scheduler installs them once, at its own
// construction) and /dev nodes stay present — their ownership is
// restored by the GPU manager's Reset, which knows the pristine modes.
func (n *Node) Reset() {
	n.down = false
	n.Procs.Reset()
}

// AddPAMHook appends a module to the login stack.
func (n *Node) AddPAMHook(h PAMHook) {
	n.pam = append(n.pam, h)
}

// Login attempts an ssh-style login for uid with the given credential,
// running the PAM stack; on success it spawns a shell process and
// returns it, read-only, as Table.Spawn does. This is the path
// pam_slurm gates on compute nodes.
func (n *Node) Login(cred ids.Credential) (*Process, error) {
	if n.down {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.Name)
	}
	for _, h := range n.pam {
		if err := h(n, cred.UID); err != nil {
			return nil, &LoginError{Cause: err}
		}
	}
	return n.Procs.Spawn(cred, 1, "bash", "-l"), nil
}

// LoginError is a login a PAM module refused: Cause is the module's
// own refusal. It reads "simos: access denied by PAM: <Cause>" and
// unwraps to ErrAccessDenied only; the text is built only when Error
// is called.
type LoginError struct {
	Cause error
}

func (e *LoginError) Error() string { return ErrAccessDenied.Error() + ": " + e.Cause.Error() }

func (e *LoginError) Unwrap() error { return ErrAccessDenied }

// DevError is a device open the /dev permission bits refused: Path is
// the device, Mode its permission bits, UID the caller. It unwraps to
// ErrPermission; the text is built only when Error is called.
type DevError struct {
	Path string
	Mode uint32
	UID  ids.UID
}

func (e *DevError) Error() string {
	return ErrPermission.Error() + ": " + e.Path + " mode " + strconv.FormatUint(uint64(e.Mode), 8) + " uid " + strconv.Itoa(int(e.UID))
}

func (e *DevError) Unwrap() error { return ErrPermission }

// AddDev registers a /dev character file.
func (n *Node) AddDev(path string, owner ids.UID, group ids.GID, mode uint32) {
	n.dev[path] = &DevNode{Path: path, Owner: owner, Group: group, Mode: mode}
}

// ChownDev changes ownership/permissions of a device node; root only.
func (n *Node) ChownDev(actor ids.Credential, path string, owner ids.UID, group ids.GID, mode uint32) error {
	if !actor.IsRoot() {
		return fmt.Errorf("%w: chown %s", ErrPermission, path)
	}
	d, ok := n.dev[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDev, path)
	}
	d.Owner, d.Group, d.Mode = owner, group, mode
	return nil
}

// OpenDev checks whether cred may open the device for read/write
// using standard owner/group/other permission evaluation.
func (n *Node) OpenDev(cred ids.Credential, path string) (*DevNode, error) {
	d, ok := n.dev[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDev, path)
	}
	if cred.IsRoot() {
		return d, nil
	}
	var bits uint32
	switch {
	case cred.UID == d.Owner:
		bits = (d.Mode >> 6) & 7
	case cred.InGroup(d.Group):
		bits = (d.Mode >> 3) & 7
	default:
		bits = d.Mode & 7
	}
	if bits&6 != 6 { // need read+write to use an accelerator
		return nil, &DevError{Path: path, Mode: d.Mode, UID: cred.UID}
	}
	return d, nil
}

// Crash marks the node down (e.g. after an OOM cascade) and kills all
// processes. Returns the number of processes that died.
func (n *Node) Crash() int {
	n.down = true
	return n.Procs.killAll()
}

// Restore brings a crashed node back (fresh daemons, under the next
// PIDs). Once the table has a pristine mark the daemons' entries come
// from storage Reset recycles, so a warmed crash, restore and Reset
// allocate nothing.
func (n *Node) Restore() {
	n.down = false
	n.Procs.spawnBaseDaemons()
}

// Down reports whether the node has crashed.
func (n *Node) Down() bool {
	return n.down
}
