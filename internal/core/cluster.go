package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/gpu"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/procfs"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/ubf"
	"repro/internal/vfs"
)

// Cluster is a fully wired simulated HPC system under one separation
// configuration. Use New to build one, AddUser / AddProjectGroup to
// provision identities, and the embedded subsystems directly for
// everything else. A cluster is not safe for concurrent use: one
// goroutine at a time uses it and everything reachable from it, and
// handing it to another goroutine needs a happens-before edge
// (DESIGN.md §7, "One owner per cluster").
type Cluster struct {
	Cfg  Config
	Topo Topology

	Registry *ids.Registry

	// Nodes: compute nodes first, then login nodes.
	Compute []*simos.Node
	Logins  []*simos.Node

	Net        *netsim.Network
	PortalHost *netsim.Host

	SharedFS *vfs.FS            // Lustre-like: /home, /scratch, /proj
	LocalFS  map[string]*vfs.FS // per node: /tmp, /dev/shm
	NS       map[string]*vfs.Namespace

	Sched      *sched.Scheduler
	UBF        *ubf.Daemon
	GPUs       *gpu.Manager
	Portal     *portal.Portal
	Containers *container.Runtime

	Proc map[string]*procfs.Mount // per-node /proc view

	// Escalation tools + their groups.
	Seepid     *procfs.Seepid
	SmaskRelax *vfs.SmaskRelax
	SupportGID ids.GID // support-staff membership (the seepid whitelist)
	ExemptGID  ids.GID // /proc gid= exemption; joined only via seepid
	CoordGID   ids.GID

	// nodesByName indexes Compute+Logins for O(1) Node lookup.
	nodesByName map[string]*simos.Node
	// The escalation tools at the mark, which Reset reinstalls. Both
	// tools are immutable, so the mark shares them.
	markSeepid *procfs.Seepid
	markSmask  *vfs.SmaskRelax

	clock atomic.Int64
}

// SupportGroupName is the registry group whose members bypass
// hidepid (via seepid) and may relax smask.
const SupportGroupName = "hpc-support"

// CoordGroupName is the scheduler-coordinator group exempt from
// PrivateData.
const CoordGroupName = "slurm-coord"

// New builds a cluster under cfg with the given topology. Both are
// validated first: a zero Topology or an incoherent Config (see
// Config.Validate) is refused with a descriptive error instead of
// producing a silently degenerate cluster.
func New(cfg Config, topo Topology) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: config %q: %w", cfg.Name, err)
	}
	c := &Cluster{
		Cfg:         cfg,
		Topo:        topo,
		Registry:    ids.NewRegistry(),
		Net:         netsim.NewNetwork(),
		LocalFS:     make(map[string]*vfs.FS),
		NS:          make(map[string]*vfs.Namespace),
		Proc:        make(map[string]*procfs.Mount),
		nodesByName: make(map[string]*simos.Node),
	}
	clock := func() int64 { return c.clock.Load() }

	// Escalation groups.
	supp, err := c.Registry.AddProjectGroup(SupportGroupName, ids.Root)
	if err != nil {
		return nil, err
	}
	coord, err := c.Registry.AddProjectGroup(CoordGroupName, ids.Root)
	if err != nil {
		return nil, err
	}
	// The /proc exemption group stays member-less in the registry:
	// holding it is a *session* state granted by seepid, never part
	// of a login credential.
	exempt, err := c.Registry.AddProjectGroup("proc-exempt", ids.Root)
	if err != nil {
		return nil, err
	}
	c.SupportGID, c.CoordGID, c.ExemptGID = supp.GID, coord.GID, exempt.GID

	// Filesystems.
	fsPolicy := vfs.Policy{
		SmaskEnabled:      cfg.SmaskEnabled,
		Smask:             cfg.Smask,
		ACLRestrict:       cfg.ACLRestrict,
		ProtectedSymlinks: cfg.ProtectedSymlinks,
	}
	c.SharedFS = vfs.New("lustre", fsPolicy, c.Registry)
	rootCtx := vfs.Context{Cred: ids.RootCred()}
	for _, dir := range []string{"/home", "/scratch", "/proj"} {
		if err := c.SharedFS.MkdirAll(rootCtx, dir, 0o755); err != nil {
			return nil, err
		}
	}
	if err := c.SharedFS.CreateTmp("/scratch/shared"); err != nil {
		return nil, err
	}

	// Every node's local filesystem starts from the same pristine tree
	// (/tmp + /dev/shm), so build it once and stamp out template-backed
	// mounts: a node whose local FS is never written shares the
	// template's inodes and costs O(1) to build and to Reset.
	localProto := vfs.New("local-proto", fsPolicy, c.Registry)
	if err := localProto.CreateTmp("/tmp"); err != nil {
		return nil, err
	}
	if err := localProto.CreateTmp("/dev/shm"); err != nil {
		return nil, err
	}
	localTmpl := localProto.AsTemplate()

	// Nodes + per-node namespaces, /proc mounts and network hosts.
	addNode := func(name string, kind simos.NodeKind) (*simos.Node, error) {
		n := simos.NewNode(name, kind, topo.CoresPerNode, topo.MemPerNode, clock)
		local := vfs.NewFromTemplate("local:"+name, fsPolicy, c.Registry, localTmpl)
		ns := vfs.NewNamespace()
		if err := ns.Mount("/", c.SharedFS); err != nil {
			return nil, err
		}
		if err := ns.Mount("/tmp", local); err != nil {
			return nil, err
		}
		if err := ns.Mount("/dev/shm", local); err != nil {
			return nil, err
		}
		c.LocalFS[name] = local
		c.NS[name] = ns
		exemptGID := ids.NoGID
		if cfg.SeepidEnabled {
			exemptGID = c.ExemptGID
		}
		c.Proc[name] = procfs.NewMount(n.Procs, cfg.HidePID, exemptGID)
		c.Net.AddHost(name)
		c.nodesByName[name] = n
		return n, nil
	}
	for i := 0; i < topo.ComputeNodes; i++ {
		n, err := addNode(fmt.Sprintf("c%02d", i), simos.Compute)
		if err != nil {
			return nil, err
		}
		c.Compute = append(c.Compute, n)
	}
	for i := 0; i < topo.LoginNodes; i++ {
		n, err := addNode(fmt.Sprintf("login%d", i), simos.Login)
		if err != nil {
			return nil, err
		}
		c.Logins = append(c.Logins, n)
	}
	c.PortalHost = c.Net.AddHost("portal")

	// Scheduler over all nodes (placement uses compute only).
	all := append(append([]*simos.Node(nil), c.Compute...), c.Logins...)
	c.Sched = sched.New(sched.Config{
		PrivateData:     cfg.PrivateData,
		Policy:          cfg.Policy,
		PamSlurm:        cfg.PamSlurm,
		CoordinatorGIDs: []ids.GID{c.CoordGID},
	}, all, topo.GPUsPerNode)

	// GPUs.
	c.GPUs = gpu.NewManager(c.Compute, topo.GPUsPerNode, cfg.GPUAssignPerms, cfg.GPUClear)
	c.GPUs.Register(c.Sched)

	// User-based firewall.
	c.UBF = ubf.New(ubf.Config{CacheVerdicts: cfg.UBFCacheVerdicts})
	if cfg.UBFEnabled {
		for _, name := range c.Net.Hosts() {
			h, err := c.Net.Host(name)
			if err != nil {
				return nil, err
			}
			c.UBF.InstallOn(h)
		}
	}

	// Portal + containers.
	c.Portal = portal.New(c.PortalHost)
	if !cfg.PortalUserForward {
		c.Portal.SetTunnelMode(true)
	}
	c.Containers = container.NewRuntime(cfg.ContainerRestrict)

	// Escalation tools.
	c.Seepid = procfs.NewSeepid(c.ExemptGID)
	c.SmaskRelax = vfs.NewSmaskRelax(0o002)

	// The assembled state is the pristine mark Reset rewinds to: the
	// registry with the escalation groups, the filesystem layout, and
	// each node's base-daemon process table (marked in simos.NewNode).
	c.MarkPristine()

	return c, nil
}

// MarkPristine records the cluster's current identities and processes
// as the state Reset returns to: the registry, the shared and per-node
// filesystems, every node's process table, the portal's enrolments and
// the escalation tools' whitelists, which is everything AddUser,
// AddSupportStaff, AddProjectGroup and a process spawn touch. New marks
// the assembled cluster; a caller that provisions the same users (and
// their login processes) before every trial may provision them once
// and mark again, so that every later Reset returns to "cluster plus
// provisioned users". A process spawned before the mark survives every
// Reset with its PID, and the PIDs after it restart where the mark
// left them. Mark only between trials, before any job, socket, GPU or
// container activity: the scheduler, the network, the GPUs, the UBF
// and the container runtime keep their construction-time marks, and
// the clock returns to 0. Every component re-marks an untouched state
// in O(1).
func (c *Cluster) MarkPristine() {
	c.Registry.MarkPristine()
	c.SharedFS.MarkPristine()
	for _, fs := range c.LocalFS {
		fs.MarkPristine()
	}
	for _, n := range c.Compute {
		n.Procs.MarkPristine()
	}
	for _, n := range c.Logins {
		n.Procs.MarkPristine()
	}
	c.Portal.MarkPristine()
	c.markSeepid, c.markSmask = c.Seepid, c.SmaskRelax
}

// Reset rewinds the cluster to its pristine state, the one New built or
// the last MarkPristine recorded — the trial-lifecycle contract every
// owned component implements:
//
//   - the logical clock returns to 0;
//   - the scheduler empties (jobs, queue, calendar, accounting,
//     aggregates, crash counters) and job numbering restarts;
//   - every node comes back up with its marked process table (the base
//     daemons, plus what was spawned before the last MarkPristine) and
//     rewound PID numbering;
//   - the shared and per-node filesystems roll back to the marked
//     trees (trial homes, files, ACLs all gone);
//   - the registry drops trial users/groups and rewinds ID numbering;
//   - the network fabric drops sockets, conntrack and ephemeral ports;
//   - GPUs are unassigned, cleared, and their /dev nodes re-hidden;
//   - UBF caches/counters, portal sessions/routes and container
//     images/grants empty out, and portal enrolments return to the
//     marked ones;
//   - the seepid/smask_relax escalation tools return to their marked
//     whitelists (AddSupportStaff replaces them wholesale).
//
// Configuration and wiring fixed at construction — Cfg, Topo, PAM
// hooks, firewall hooks, portal forwarding mode, scheduler hooks —
// survive. After Reset the cluster is observationally equivalent to a
// fresh New(cfg, topo) that ran the same provisioning and mark:
// identical IDs, PIDs, verdicts and results for any identical sequence
// of operations. That equivalence is what lets
// the fleet executor reuse one cluster across a campaign's
// replications without perturbing a single output byte.
func (c *Cluster) Reset() error {
	c.clock.Store(0)
	c.Sched.Reset()
	for _, n := range c.Compute {
		n.Reset()
	}
	for _, n := range c.Logins {
		n.Reset()
	}
	c.SharedFS.Reset()
	for _, fs := range c.LocalFS {
		fs.Reset()
	}
	c.Registry.Reset()
	c.Net.Reset()
	if err := c.GPUs.Reset(); err != nil {
		return err
	}
	c.UBF.Reset()
	c.Portal.Reset()
	c.Containers.Reset()
	// Seepid/SmaskRelax are stateless after construction; only
	// AddSupportStaff ever swaps them for staffed variants.
	c.Seepid, c.SmaskRelax = c.markSeepid, c.markSmask
	return nil
}

// MustNew is New, panicking on error (for examples and benches where
// construction cannot reasonably fail).
func MustNew(cfg Config, topo Topology) *Cluster {
	c, err := New(cfg, topo)
	if err != nil {
		panic(err)
	}
	return c
}

// Step advances the cluster one logical tick (scheduler pass + clock).
func (c *Cluster) Step() { c.Sched.Step(); c.clock.Add(1) }

// RunAll drains the scheduler, advancing the cluster clock alongside.
func (c *Cluster) RunAll(maxTicks int) int {
	t := c.Sched.RunAll(maxTicks)
	c.clock.Add(int64(t))
	return t
}

// Now returns the cluster's logical clock: ticks since construction
// (or the last Reset). Attack campaigns stamp their audit events and
// measure detection latency with it.
func (c *Cluster) Now() int64 { return c.clock.Load() }

// User bundles an account with its ready-to-use login credential.
type User struct {
	*ids.User
	Cred ids.Credential
}

// AddUser provisions a user end-to-end: registry entry (+ private
// group), home directory on the shared FS, and portal enrolment with
// the given password.
func (c *Cluster) AddUser(name, portalPassword string) (*User, error) {
	u, err := c.Registry.AddUser(name)
	if err != nil {
		return nil, err
	}
	if c.Cfg.HardenedHomes {
		if err := c.SharedFS.CreateHome(u); err != nil {
			return nil, err
		}
	} else {
		// Baseline layout: user-owned, world-searchable home.
		rootCtx := vfs.Context{Cred: ids.RootCred()}
		if err := c.SharedFS.Mkdir(rootCtx, u.HomePath, 0o755); err != nil {
			return nil, err
		}
		if err := c.SharedFS.Chown(rootCtx, u.HomePath, u.UID, u.Primary); err != nil {
			return nil, err
		}
	}
	cred, err := c.Registry.LoginCredential(u.UID)
	if err != nil {
		return nil, err
	}
	c.Portal.Enroll(u.UID, portalPassword)
	return &User{User: u, Cred: cred}, nil
}

// AddSupportStaff provisions a user who is whitelisted for seepid and
// smask_relax (an HPC research facilitator).
func (c *Cluster) AddSupportStaff(name, portalPassword string) (*User, error) {
	u, err := c.AddUser(name, portalPassword)
	if err != nil {
		return nil, err
	}
	if err := c.Registry.AddToGroup(ids.Root, c.SupportGID, u.UID); err != nil {
		return nil, err
	}
	c.Seepid = procfs.NewSeepid(c.ExemptGID, c.seepidStaff()...)
	c.SmaskRelax = vfs.NewSmaskRelax(0o002, c.seepidStaff()...)
	// Refresh the credential to include the support group.
	u.Cred, err = c.Registry.LoginCredential(u.UID)
	return u, err
}

// Refresh re-derives u's login credential from the registry, picking
// up group memberships granted after the account was provisioned
// (the real-world equivalent: log out and back in).
func (c *Cluster) Refresh(u *User) error {
	cred, err := c.Registry.LoginCredential(u.UID)
	if err != nil {
		return err
	}
	u.Cred = cred
	return nil
}

// seepidStaff recovers the current support-group membership.
func (c *Cluster) seepidStaff() []ids.UID {
	g, err := c.Registry.Group(c.SupportGID)
	if err != nil {
		return nil
	}
	var out []ids.UID
	for _, uid := range g.Members() {
		if uid != ids.Root {
			out = append(out, uid)
		}
	}
	return out
}

// AddProjectGroup provisions an approved project group with a shared
// directory under /proj and the given steward.
func (c *Cluster) AddProjectGroup(name string, steward ids.UID, members ...ids.UID) (*ids.Group, error) {
	g, err := c.Registry.AddProjectGroup(name, steward)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := c.Registry.AddToGroup(steward, g.GID, m); err != nil {
			return nil, err
		}
	}
	if err := c.SharedFS.CreateProjectDir("/proj/"+name, g); err != nil {
		return nil, err
	}
	return g, nil
}

// Node returns any node (compute or login) by name.
func (c *Cluster) Node(name string) (*simos.Node, error) {
	if n, ok := c.nodesByName[name]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("core: no such node %q", name)
}

// Host returns the network host for a node name.
func (c *Cluster) Host(name string) (*netsim.Host, error) {
	return c.Net.Host(name)
}

// LoginShell performs an ssh-style login (PAM-gated on compute nodes)
// and returns the shell process.
func (c *Cluster) LoginShell(nodeName string, cred ids.Credential) (*simos.Process, error) {
	n, err := c.Node(nodeName)
	if err != nil {
		return nil, err
	}
	return n.Login(cred)
}
