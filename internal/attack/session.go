package attack

import (
	"fmt"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/sched"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// secretToken is the marker every victim secret carries; an attempt
// leaks when the attacker can observe it (or the access control that
// should have hidden it admits the attempt).
const secretToken = "VICTIM-SECRET-42"

// The victim's fixed scenery: service ports (disjoint per subsystem),
// file paths, socket name, and the attacker's portal password.
const (
	victimSvcPort    = 5000
	victimAppPort    = 8888
	scratchFile      = "/scratch/shared/victim-output.dat"
	tmpName          = "victim-projectX-run7.tmp"
	tmpFile          = "/tmp/" + tmpName
	victimSocket     = "victim-coordinator"
	probeImage       = "probe-img"
	attackerPassword = "attacker-pw"
)

// session is one victim/attacker pair on a cluster, made by provision:
// the accounts, seeds and login process provisioned up front, and the
// victim's lazily-materialized activity (jobs, listener, portal route,
// abstract socket, container image). Attempts set up exactly the lazy
// state they target, each piece once, on first use — so a kill chain's
// later steps reuse the recon steps' scenery, each attempt stays
// meaningful standalone, and the cluster work (hence a trial's
// determinism-relevant event sequence) is a pure function of which
// attempts ran in which order.
type session struct {
	c        *core.Cluster
	victim   *core.User
	attacker *core.User
	login    *simos.Node
	vctx     vfs.Context
	actx     vfs.Context
	homeFile string         // the victim's home file, built once per account
	vproc    *simos.Process // victim login process with a secret argv

	vjobID   int // long-running victim batch job (0 = not yet)
	vjobNode string
	gjobNode string // long-running victim GPU job's node ("" = not yet)
	vsock    *netsim.AbstractSocket

	listening, routed, imported bool
}

// provision is the one place a victim/attacker pair is created. It adds
// both accounts to c and sets up the victim's scenery that no trial
// draw decides: the home, scratch and /tmp files, and the victim's
// login process, whose argv carries a secret. The names are distinct
// from the mix's "u<N>" scheme, so an attack rides alongside any
// legitimate workload. A seed the cluster refuses is a provisioning
// error.
func provision(c *core.Cluster) (*session, error) {
	victim, err := c.AddUser("victim", "victim-pw")
	if err != nil {
		return nil, err
	}
	attacker, err := c.AddUser("attacker", attackerPassword)
	if err != nil {
		return nil, err
	}
	ss := &session{
		c: c, victim: victim, attacker: attacker,
		login: c.Logins[0],
		vctx:  vfs.Ctx(victim.Cred), actx: vfs.Ctx(attacker.Cred),
		homeFile: victim.HomePath + "/results.csv",
	}
	if err := c.SharedFS.WriteFile(ss.vctx, ss.homeFile, []byte("victim-home-data"), 0o644); err != nil {
		return nil, fmt.Errorf("attack: seeding the victim's home: %w", err)
	}
	// The victim opens its scratch file to the world with a mistyped
	// chmod.
	err = c.SharedFS.WriteFile(ss.vctx, scratchFile, []byte("victim-scratch-data"), 0o600)
	if err == nil {
		err = c.SharedFS.Chmod(ss.vctx, scratchFile, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("attack: seeding the victim's scratch file: %w", err)
	}
	if err := c.NS[ss.login.Name].WriteFile(ss.vctx, tmpFile, []byte("victim-tmp-data"), 0o644); err != nil {
		return nil, fmt.Errorf("attack: seeding the victim's /tmp file: %w", err)
	}
	ss.vproc = ss.login.Procs.Spawn(victim.Cred, 1, "analyze", "--token="+secretToken)
	return ss, nil
}

// Adversary is a campaign's scenery provisioned once on a cluster (see
// provision). A pooled fleet slot provisions it before the cluster's
// pristine mark, so every Reset returns to it and each trial's campaign
// only binds to it (Run). The rest stays lazy (DESIGN.md §10): the
// victim's jobs, TCP listener, portal route and abstract socket depend
// on the mix or the clock, and the container image lives outside the
// mark.
type Adversary struct {
	provisioned session // the provisioned scenery, before any attempt
	trial       session // the bound trial's session
}

// Provision provisions an Adversary on c, or fails as provision does.
func Provision(c *core.Cluster) (*Adversary, error) {
	ss, err := provision(c)
	if err != nil {
		return nil, err
	}
	return &Adversary{provisioned: *ss}, nil
}

// bind returns a session over the provisioned scenery with none of the
// victim's lazy activity. It is valid until the next bind.
func (adv *Adversary) bind() *session {
	adv.trial = adv.provisioned
	return &adv.trial
}

// close cancels the victim's open-ended job so an attacked trial's
// drain measures the mix, not a sentinel job parked at the horizon.
func (ss *session) close() {
	if ss.vjobID != 0 {
		_ = ss.c.Sched.Cancel(ss.victim.Cred, ss.vjobID)
	}
}

// once runs setup unless done is set, and sets done when it succeeds.
// A failure is a setup failure, whatever its error.
func once(done *bool, setup func() error) error {
	if *done {
		return nil
	}
	if err := setup(); err != nil {
		return setupFailed(err)
	}
	*done = true
	return nil
}

// place steps the live cluster, mix and all, until the job runs, for
// at most tries ticks, and returns its first node ("" = never placed).
func (ss *session) place(jobID, tries int) (string, error) {
	for i := 0; i < tries; i++ {
		st, node, err := ss.c.Sched.Placement(jobID)
		if err != nil {
			return "", setupFailed(err)
		}
		if st == sched.Running {
			return node, nil
		}
		ss.c.Step()
	}
	return "", nil
}

// victimJob submits the victim's long-running batch job (its command
// line carries a secret) and waits until it places.
func (ss *session) victimJob() error {
	if ss.vjobID != 0 {
		return nil
	}
	vj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "victim-sim", Command: "simulate --token=" + secretToken,
		Cores: 1, MemB: 1, Duration: 1 << 30,
	})
	if err != nil {
		return setupFailed(fmt.Errorf("victim job rejected: %v", err))
	}
	node, err := ss.place(vj, 64)
	if err != nil {
		return err
	}
	if node == "" {
		_ = ss.c.Sched.Cancel(ss.victim.Cred, vj)
		return setupFailed(fmt.Errorf("victim job never placed (cluster saturated)"))
	}
	ss.vjobID, ss.vjobNode = vj, node
	return nil
}

// gpuJob submits a long-running victim GPU job and waits until it
// places.
func (ss *session) gpuJob() error {
	if ss.gjobNode != "" {
		return nil
	}
	gj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 1 << 30,
	})
	if err != nil {
		return setupFailed(fmt.Errorf("victim gpu job rejected: %v", err))
	}
	node, err := ss.place(gj, 64)
	if err == nil && node == "" {
		err = setupFailed(fmt.Errorf("victim gpu job never placed"))
	}
	ss.gjobNode = node
	return err
}

// gpuSecret writes secret to the victim's GPU on node — the one the
// prolog assigned to the victim, or (with no permission binding) the
// node's first device — and returns that device.
func (ss *session) gpuSecret(node string, secret []byte) (*gpu.Device, error) {
	devs := ss.c.GPUs.Devices(node)
	dev := devs[0]
	for _, d := range devs {
		if d.Assigned() == ss.victim.UID {
			dev = d
		}
	}
	return dev, setupFailed(dev.Write(ss.victim.Cred, 512, secret))
}

// plant sets up a planted-symlink attempt on the login node's /tmp:
// seed creates target, then the attacker links link to it.
func (ss *session) plant(target, link string, seed func() error) error {
	err := seed()
	if err == nil {
		err = ss.c.LocalFS[ss.login.Name].Symlink(ss.actx, target, link)
	}
	return setupFailed(err)
}

// listen starts the victim's TCP service on its job node.
func (ss *session) listen() error {
	return once(&ss.listening, func() error {
		if err := ss.victimJob(); err != nil {
			return err
		}
		vHost, err := ss.c.Host(ss.vjobNode)
		if err != nil {
			return err
		}
		_, err = vHost.Listen(ss.victim.Cred, netsim.TCP, victimSvcPort)
		return err
	})
}

// route serves the victim's web app on its job node and registers it
// with the portal.
func (ss *session) route() error {
	return once(&ss.routed, func() error {
		if err := ss.victimJob(); err != nil {
			return err
		}
		vHost, err := ss.c.Host(ss.vjobNode)
		if err != nil {
			return err
		}
		if _, err := portal.Serve(vHost, ss.victim.Cred, victimAppPort); err != nil {
			return err
		}
		_, err = ss.c.Portal.Register(ss.victim.Cred, "/jupyter/victim", ss.vjobNode, victimAppPort)
		return err
	})
}

// openSocket binds the victim's abstract-namespace socket on the
// login node.
func (ss *session) openSocket() error {
	if ss.vsock != nil {
		return nil
	}
	loginHost, err := ss.c.Host(ss.login.Name)
	if err != nil {
		return err
	}
	ss.vsock, err = loginHost.ListenAbstract(ss.victim.Cred, victimSocket)
	return setupFailed(err)
}

// image imports the container image attempts run, once.
func (ss *session) image() string {
	if !ss.imported {
		ss.c.Containers.ImportImage(probeImage)
		ss.imported = true
	}
	return probeImage
}

// attackerHost is the host the attacker works from: the last login
// node, away from the victim's login0.
func (ss *session) attackerHost() (*netsim.Host, error) {
	return ss.c.Host(ss.c.Logins[len(ss.c.Logins)-1].Name)
}

// approvedContainer approves the attacker for the container runtime
// and runs the probe image on the last compute node, networked through
// host.
func (ss *session) approvedContainer(host *netsim.Host) (*container.Container, error) {
	ss.c.Containers.Allow(ss.attacker.UID)
	node := ss.c.Compute[len(ss.c.Compute)-1]
	ct, err := ss.c.Containers.Run(ss.attacker.Cred, node, ss.c.NS[node.Name], host,
		container.RunSpec{Image: ss.image()})
	return ct, setupFailed(err)
}
