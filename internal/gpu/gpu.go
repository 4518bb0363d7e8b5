// Package gpu implements the accelerator substrate and the paper's
// GPU separation measures (§IV-F). GPUs "do not use a traditional
// security model for data resident in memory": device memory has no
// ownership concept and is NOT cleared between jobs. The paper's two
// measures are reproduced here:
//
//  1. assignment: the scheduler prolog chowns the GPU's /dev character
//     file to the allocated user's private group, so unassigned GPUs
//     are not visible at all;
//  2. clearing: the scheduler epilog runs the vendor memory-clear so
//     the next user cannot read the previous user's residue.
//
// Both are toggles so the baseline (leaky) behaviour is measurable.
package gpu

import (
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/sched"
	"repro/internal/simos"
)

// Device is one GPU: a slab of device memory that persists across
// jobs unless explicitly cleared.
type Device struct {
	Index   int
	DevPath string
	node    *simos.Node

	// mem is device memory up to the highest byte written since the
	// last clear; the bytes past it read as zeros. A clear zeroes only
	// that extent and keeps the capacity, so a reused device stores
	// again without allocating.
	mem      []byte
	assigned ids.UID // NoUID when free
	jobID    int
}

// GPU errors.
var (
	ErrNotAssigned = errors.New("gpu: device not assigned to caller")
	ErrBusy        = errors.New("gpu: device already assigned")
	ErrOOB         = errors.New("gpu: address out of range")
)

// DeviceError is a GPU the caller may not use: Cause is the node's
// refusal to open the device. It reads "gpu: device not assigned to
// caller: <Cause>" and unwraps to ErrNotAssigned only; the text is
// built only when Error is called.
type DeviceError struct {
	Cause error
}

func (e *DeviceError) Error() string { return ErrNotAssigned.Error() + ": " + e.Cause.Error() }

func (e *DeviceError) Unwrap() error { return ErrNotAssigned }

// MemSize is the simulated device memory per GPU.
const MemSize = 1 << 16

// newDevice registers a GPU on a node with unassigned (invisible)
// permissions.
func newDevice(node *simos.Node, index int) *Device {
	// Memory grows on Write to the highest byte written: device
	// memory that no job ever touches costs nothing, which is what
	// lets a 10k-node GPU fleet exist at all.
	d := &Device{
		Index:   index,
		DevPath: fmt.Sprintf("/dev/nvidia%d", index),
		node:    node,
	}
	d.assigned = ids.NoUID
	// Unassigned: mode 000 — "GPUs that have not been assigned to a
	// user are not visible at all."
	node.AddDev(d.DevPath, ids.Root, ids.RootGroup, 0o000)
	return d
}

// open validates device access: the caller must pass the /dev
// permission check, which after assignment admits only the assigned
// user's private group.
func (d *Device) open(cred ids.Credential) error {
	_, err := d.node.OpenDev(cred, d.DevPath)
	if err != nil {
		return &DeviceError{Cause: err}
	}
	return nil
}

// Write stores data at offset in device memory.
func (d *Device) Write(cred ids.Credential, offset int, data []byte) error {
	if err := d.open(cred); err != nil {
		return err
	}
	if offset < 0 || offset+len(data) > MemSize {
		return fmt.Errorf("%w: [%d,%d)", ErrOOB, offset, offset+len(data))
	}
	if end := offset + len(data); end > len(d.mem) {
		d.mem = append(d.mem, make([]byte, end-len(d.mem))...)
	}
	copy(d.mem[offset:], data)
	return nil
}

// Read returns length bytes at offset. If the device was handed over
// without clearing, this is where the previous user's residue leaks.
func (d *Device) Read(cred ids.Credential, offset, length int) ([]byte, error) {
	if err := d.open(cred); err != nil {
		return nil, err
	}
	if offset < 0 || offset+length > MemSize {
		return nil, fmt.Errorf("%w: [%d,%d)", ErrOOB, offset, offset+length)
	}
	out := make([]byte, length)
	if offset < len(d.mem) {
		copy(out, d.mem[offset:]) // past the written extent: zeros
	}
	return out, nil
}

// clear zeroes device memory — the vendor-provided epilog step. Only
// the written extent holds anything but zeros, so only it is zeroed
// (the epilog's cost stays proportional to actual use).
func (d *Device) clear() {
	clear(d.mem)
	d.mem = d.mem[:0]
}

// Assigned returns the currently assigned user (NoUID if free).
func (d *Device) Assigned() ids.UID {
	return d.assigned
}

// Manager owns every GPU in the cluster and provides the scheduler
// prolog/epilog hooks. It and its devices are not safe for concurrent
// use; the cluster's owner calls them (DESIGN.md §7, "One owner per
// cluster").
type Manager struct {
	// ClearOnRelease runs the vendor memory-clear in the epilog
	// (paper's deployment: on; baseline: off).
	ClearOnRelease bool
	// AssignDevPerms narrows /dev permissions to the allocated user
	// (paper's deployment: on; baseline: world-accessible devices).
	AssignDevPerms bool

	byNode map[string][]*Device
	// dirty is set whenever device state may have changed — an
	// assignment through the prolog/epilog or a caller obtaining raw
	// device handles via Devices — so Reset on an untouched manager
	// skips the full device walk (O(nodes×gpus) at XXL scale).
	dirty bool
}

// NewManager equips each node with gpusPerNode devices.
func NewManager(nodes []*simos.Node, gpusPerNode int, assignPerms, clearOnRelease bool) *Manager {
	m := &Manager{
		ClearOnRelease: clearOnRelease,
		AssignDevPerms: assignPerms,
		byNode:         make(map[string][]*Device),
	}
	for _, n := range nodes {
		for i := 0; i < gpusPerNode; i++ {
			d := newDevice(n, i)
			if !assignPerms {
				// Baseline: devices world-accessible like stock
				// drivers (crw-rw-rw-).
				n.AddDev(d.DevPath, ids.Root, ids.RootGroup, 0o666)
			}
			m.byNode[n.Name] = append(m.byNode[n.Name], d)
		}
	}
	return m
}

// Reset rewinds every device to its freshly-constructed state: memory
// zeroed (only the extent jobs wrote), assignment dropped,
// and the /dev node restored to the pristine ownership — invisible
// (root:root 000) under AssignDevPerms, world-accessible (0666)
// otherwise. The node's /dev entries themselves persist from
// construction; only their ownership is rewound here.
func (m *Manager) Reset() error {
	if !m.dirty {
		return nil
	}
	m.dirty = false
	mode := uint32(0o000)
	if !m.AssignDevPerms {
		mode = 0o666
	}
	for _, devs := range m.byNode {
		for _, d := range devs {
			d.assigned = ids.NoUID
			d.jobID = 0
			d.clear()
			if err := d.node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, ids.RootGroup, mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// Devices returns the devices on a node. The slice is the manager's
// own and read-only: a caller must not write it.
func (m *Manager) Devices(node string) []*Device {
	// Raw handles escape the manager's bookkeeping: assume the caller
	// mutates device state so the next Reset does a full sweep.
	m.dirty = true
	return m.byNode[node]
}

// Prolog is the scheduler job-start hook: assign free GPUs on the
// node to the job's user by narrowing /dev permissions to their
// user-private group.
func (m *Manager) Prolog(job *sched.Job, node *simos.Node) error {
	if job.Spec.GPUs == 0 {
		return nil
	}
	// Assignment mutates device + /dev state; Epilog only ever rewinds
	// what a Prolog assigned, so flagging here covers both hooks.
	m.dirty = true
	need := job.Spec.GPUs
	for _, d := range m.byNode[node.Name] {
		if need == 0 {
			break
		}
		if d.assigned != ids.NoUID {
			continue
		}
		d.assigned, d.jobID = job.User, job.ID
		if m.AssignDevPerms {
			if err := node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, job.Cred.EGID, 0o660); err != nil {
				return err
			}
		}
		need--
	}
	if need > 0 {
		return fmt.Errorf("%w: node %s short %d gpus for job %d", ErrBusy, node.Name, need, job.ID)
	}
	return nil
}

// Epilog is the scheduler job-end hook: optionally clear memory, then
// return devices to the unassigned (invisible) state. It mirrors
// Prolog's zero-GPU return: only Prolog assigns a device, and only to
// a job that asks for one (Reset drops every assignment whenever a
// Prolog ran), so a job with no GPU owns nothing to release.
func (m *Manager) Epilog(job *sched.Job, node *simos.Node) error {
	if job.Spec.GPUs == 0 {
		return nil
	}
	for _, d := range m.byNode[node.Name] {
		if d.jobID != job.ID {
			continue
		}
		d.assigned, d.jobID = ids.NoUID, 0
		if m.ClearOnRelease {
			d.clear()
		}
		if m.AssignDevPerms {
			if err := node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, ids.RootGroup, 0o000); err != nil {
				return err
			}
		}
	}
	return nil
}

// Register wires the manager into a scheduler.
func (m *Manager) Register(s *sched.Scheduler) {
	s.AddProlog(m.Prolog)
	s.AddEpilog(m.Epilog)
}
