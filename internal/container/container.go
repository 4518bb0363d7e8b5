// Package container implements the HPC software-encapsulation
// container runtime of the paper (§IV-G), modelled on
// Singularity/Apptainer rather than enterprise service containers:
//
//   - the container runs AS THE INVOKING USER — no root, no setuid
//     escalation; general users are forbidden administrative
//     privileges;
//   - the host network stack is passed through (no port
//     virtualization), so the UBF still governs every connection;
//   - host local and central filesystems are passed through as bind
//     mounts, so smask / UPG / ACL restrictions still bind;
//   - users cannot BUILD containers on the HPC system (that requires
//     privileges they do not have): the runtime has no build path at
//     all; images are built elsewhere and brought in as files.
//
// The net effect the tests verify: "all of the security features
// described in this paper pass through to the container as well."
package container

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/simos"
	"repro/internal/slab"
	"repro/internal/vfs"
)

// Image is a read-only software environment (tools, libraries,
// Python trees) baked in at build time; the runtime knows it by name.
type Image struct {
	Name string
}

// Container errors.
var (
	ErrNoImage    = errors.New("container: no such image")
	ErrPrivileged = errors.New("container: privileged execution refused")
)

// Runtime is the per-cluster container engine (the apptainer binary +
// site configuration). Users with Singularity privileges are tracked
// the way LLSC grants them case-by-case (§IV-G). It is not safe for
// concurrent use; the cluster's owner calls it (DESIGN.md §7, "One
// owner per cluster").
type Runtime struct {
	images   map[string]*Image
	allowed  map[ids.UID]bool // users granted container privileges; empty = everyone
	restrict bool

	// imageSlab, runs and gids hold the imported images, the running
	// containers and their credentials' groups. Reset rewinds them, so
	// a pooled trial's imports and runs reuse the previous trial's
	// storage, and everything the runtime hands out is valid until the
	// next Reset. All start empty, and until the first Reset they hand
	// out heap storage (slab.Alloc).
	imageSlab slab.Slab[Image]
	runs      slab.Slab[Container]
	gids      slab.Slab[ids.GID]
}

// NewRuntime creates an engine. If restrict is true, only users
// granted via Allow may run containers.
func NewRuntime(restrict bool) *Runtime {
	return &Runtime{
		images:   make(map[string]*Image),
		allowed:  make(map[ids.UID]bool),
		restrict: restrict,
	}
}

// Reset rewinds the runtime to its freshly-constructed state: imported
// images and privilege grants are dropped (both are post-construction
// state — a fresh cluster has neither). The restrict policy, set at
// construction from the cluster config, survives.
func (r *Runtime) Reset() {
	clear(r.images)
	clear(r.allowed)
	r.imageSlab.Reset()
	r.runs.Reset()
	r.gids.Reset()
}

// Allow grants container privileges to a user.
func (r *Runtime) Allow(uid ids.UID) {
	r.allowed[uid] = true
}

// AdmissionError is a run the runtime refused for UID, in the shape
// of os.PathError: Err is the sentinel (ErrPrivileged), and NotGranted
// marks a run refused because the user was never approved for the
// runtime. The text is built only when Error is called.
type AdmissionError struct {
	UID        ids.UID
	Err        error
	NotGranted bool
}

func (e *AdmissionError) Error() string {
	s := e.Err.Error() + ": uid " + strconv.Itoa(int(e.UID))
	if e.NotGranted {
		s += " not granted singularity privileges"
	}
	return s
}

func (e *AdmissionError) Unwrap() error { return e.Err }

// ImportImage registers an image built off-system (on the user's own
// machine where they have admin rights).
func (r *Runtime) ImportImage(name string) *Image {
	img := &r.imageSlab.Alloc(1)[0]
	img.Name = name
	r.images[name] = img
	return img
}

// Container is one running instance: the user's credential, the host
// node, the passthrough namespace and network host.
type Container struct {
	Image *Image
	Cred  ids.Credential
	Node  *simos.Node
	NS    *vfs.Namespace
	Net   *netsim.Host
	Proc  *simos.Process
}

// RunSpec configures a container launch.
type RunSpec struct {
	Image string
	// RequestPrivileged models asking for --fakeroot/setuid paths;
	// always refused for non-root (the security property under test).
	RequestPrivileged bool
	Command           string
}

// Run launches a container for cred on the given node, wiring the
// passthrough namespace and network.
func (r *Runtime) Run(cred ids.Credential, node *simos.Node, ns *vfs.Namespace, net *netsim.Host, spec RunSpec) (*Container, error) {
	if spec.RequestPrivileged && !cred.IsRoot() {
		return nil, &AdmissionError{UID: cred.UID, Err: ErrPrivileged}
	}
	if r.restrict && !r.allowed[cred.UID] && !cred.IsRoot() {
		return nil, &AdmissionError{UID: cred.UID, Err: ErrPrivileged, NotGranted: true}
	}
	img, ok := r.images[spec.Image]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoImage, spec.Image)
	}
	cmd := spec.Command
	if cmd == "" {
		cmd = "/bin/sh"
	}
	// The container process runs with the INVOKING user's credential —
	// uid inside == uid outside (no user namespace remapping for HPC
	// encapsulation containers).
	p := node.Procs.Spawn(cred, 1, "apptainer", "exec", img.Name, cmd)
	ct := &r.runs.Alloc(1)[0]
	*ct = Container{Image: img, Cred: cred, Node: node, NS: ns, Net: net, Proc: p}
	ct.Cred.Groups = r.gids.Clone(cred.Groups)
	return ct, nil
}

// The passthrough operations: every host mount is visible with the
// caller's own credential, so host-side enforcement (smask, UPG
// homes, ACL restriction) applies unchanged inside the container.

// ReadFile reads a host path through the bind mount.
func (c *Container) ReadFile(path string) ([]byte, error) {
	return c.NS.ReadFile(vfs.Ctx(c.Cred), path)
}

// Dial opens a network connection through the host stack: the UBF
// hook on the destination sees the container user's credential.
func (c *Container) Dial(proto netsim.Proto, dstHost string, dstPort int) (*netsim.Conn, error) {
	return c.Net.Dial(c.Cred, proto, dstHost, dstPort)
}
