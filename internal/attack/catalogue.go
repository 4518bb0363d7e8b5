package attack

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/sched"
)

// Entry is one attempt of the probe catalogue: a named cross-user
// attack bound to the audit channel it exercises. The catalogue is the
// only place an attempt is defined; LeakScan, the E16 ablation matrix
// and the E17 campaigns each run a subset of it against one session.
type Entry struct {
	Name    string
	Channel audit.Channel
	// Closes is the entry's closing condition: it is closed when every
	// atom of any one set is present. Atoms are registry measure names
	// and LiveVictimJob. nil marks a residual channel, one the paper
	// concedes stays open under the enhanced configuration.
	Closes [][]string
	// Label is the E16 channel the entry reports under ("" = none). A
	// label reopens when any entry carrying it leaks.
	Label string
	// Scan marks the entries of the LeakScan sweep.
	Scan bool

	attempt func(ss *session) observation
}

// LiveVictimJob is the one closing atom that is not a registry
// measure: the victim's long-running batch job holds its node while
// the entry runs.
const LiveVictimJob = "live-victim-job"

// Residual reports whether no atoms close the entry.
func (e *Entry) Residual() bool { return len(e.Closes) == 0 }

// Open reports whether the entry should leak when exactly the atoms in
// present hold. The condition has no negation, so adding an atom never
// reopens an entry.
func (e *Entry) Open(present ...string) bool {
closing:
	for _, set := range e.Closes {
		for _, atom := range set {
			if !slices.Contains(present, atom) {
				continue closing
			}
		}
		return false
	}
	return true
}

// probe is the report row the entry fills under name.
func (e *Entry) probe(name string) audit.Probe {
	return audit.Probe{Channel: e.Channel, Name: name, Residual: e.Residual()}
}

// run attempts the entry and records it under name.
func (e *Entry) run(ss *session, name string) audit.Result {
	o := e.attempt(ss)
	return audit.Result{Probe: e.probe(name), Verdict: verdictOf(o), Detail: o.detail}
}

// E16 channel labels, keyed to the experiment that owns each channel.
const (
	labelE6Files = "E6 file-content"
	labelE9GPU   = "E9 gpu-device"
)

// catalogue lists every attempt, grouped by the paper section whose
// measure closes it, the three residual channels last; E16 reports its
// labels in this order.
var catalogue = []Entry{
	{Name: "ps-foreign-visible", Channel: audit.ChanProcess, Closes: [][]string{{"hidepid"}}, Label: "E1 foreign-pids", Scan: true, attempt: (*session).psForeign},
	{Name: "cmdline-secret-read", Channel: audit.ChanProcess, Closes: [][]string{{"hidepid"}}, Scan: true, attempt: (*session).cmdlineRead},
	{Name: "squeue-foreign-job", Channel: audit.ChanScheduler, Closes: [][]string{{"privatedata"}}, Label: "E3 foreign-jobs", Scan: true, attempt: (*session).squeueForeign},
	{Name: "ssh-roam-to-victim-node", Channel: audit.ChanScheduler, Closes: [][]string{{"wholenode"}}, Label: "E5 ssh-roam", Scan: true, attempt: (*session).sshRoam},
	{Name: "home-file-read", Channel: audit.ChanFS, Closes: [][]string{{"smask"}}, Label: labelE6Files, Scan: true, attempt: (*session).homeRead},
	{Name: "chmod-world-readable", Channel: audit.ChanFS, Closes: [][]string{{"smask"}}, Label: labelE6Files, Scan: true, attempt: (*session).chmodRead},
	{Name: "tmp-content-read", Channel: audit.ChanFS, Closes: [][]string{{"smask"}}, Label: labelE6Files, Scan: true, attempt: (*session).tmpRead},
	{Name: "acl-grant-to-stranger", Channel: audit.ChanFS, Closes: [][]string{{"smask"}}, Scan: true, attempt: (*session).aclGrant},
	{Name: "tmp-symlink-planting", Channel: audit.ChanFS, Closes: [][]string{{"smask"}, {"protected-symlinks"}}, Scan: true, attempt: (*session).symlinkHarvest},
	{Name: "symlink-plant", Channel: audit.ChanFS, Closes: [][]string{{"protected-symlinks"}}, Label: "E6 symlink-clobber", attempt: (*session).symlinkClobber},
	{Name: "cross-user-dial", Channel: audit.ChanNetwork, Closes: [][]string{{"ubf"}}, Label: "E7 stranger-flow", Scan: true, attempt: (*session).crossDial},
	{Name: "rdma-tcp-cm-qp", Channel: audit.ChanNetwork, Closes: [][]string{{"ubf"}}, Scan: true, attempt: (*session).rdmaTCP},
	{Name: "gpu-device-open", Channel: audit.ChanGPU, Closes: [][]string{{"gpu"}}, Label: labelE9GPU, attempt: (*session).gpuDeviceOpen},
	{Name: "gpu-residue", Channel: audit.ChanGPU, Closes: [][]string{{"gpu"}}, Label: labelE9GPU, attempt: (*session).gpuResidue},
	{Name: "gpu-memory-residue", Channel: audit.ChanGPU, Closes: [][]string{{"gpu"}, {"wholenode", LiveVictimJob}}, Scan: true, attempt: (*session).gpuHandover},
	// The forwarded hop rides the UBF, and without the portal measure
	// the gateway dials as the route owner, whom the UBF admits.
	{Name: "portal-cross-user-forward", Channel: audit.ChanPortal, Closes: [][]string{{"ubf", "portal"}}, Label: "E11 portal-forward", Scan: true, attempt: (*session).portalForward},
	{Name: "container-escape", Channel: audit.ChanContainer, Closes: [][]string{{"container"}}, Label: "E12 container-unapproved", attempt: (*session).containerEscape},
	// Containers pass the host filesystem through (§IV-G): the home
	// read inside one is closed by smask, not by admission control.
	{Name: "container-home-read", Channel: audit.ChanContainer, Closes: [][]string{{"smask"}}, Scan: true, attempt: (*session).containerHomeRead},
	{Name: "tmp-filename-listing", Channel: audit.ChanTmpNames, Scan: true, attempt: (*session).tmpNames},
	{Name: "abstract-socket-send", Channel: audit.ChanAbstract, Scan: true, attempt: (*session).abstractSend},
	{Name: "rdma-native-cm-qp", Channel: audit.ChanRDMACM, Scan: true, attempt: (*session).rdmaNativeCM},
}

// entry resolves a catalogue entry by name; an unknown name is a
// programming error in the step registry.
func entry(name string) Entry {
	for _, e := range catalogue {
		if e.Name == name {
			return e
		}
	}
	panic("attack: no catalogue entry " + name)
}

// Catalogue returns the probe catalogue in its order. The slice is a
// copy.
func Catalogue() []Entry { return slices.Clone(catalogue) }

// LeakScan runs the full attack-surface sweep of the paper's Results
// section (§V) against a fresh cluster: it provisions a victim and an
// attacker (who share no project group), has the victim do ordinary
// work on every subsystem, then attempts every Scan entry in (channel,
// name) order. The report's shape is the paper's evaluation: baseline
// leaks everywhere; enhanced closes everything except the three
// residual channels (file names in world-writable directories,
// abstract-namespace unix sockets, direct IB-CM RDMA).
//
// A scan with an inconclusive row returns its report and an error
// naming every such entry: the report shows what ran, but it proves
// nothing about the entries the error names.
func LeakScan(c *core.Cluster) (*audit.Report, error) {
	ss, err := provision(c)
	if err != nil {
		return nil, err
	}
	return ss.leakScan()
}

// leakScan is LeakScan on a provisioned session.
func (ss *session) leakScan() (*audit.Report, error) {
	// The victim's activity comes first and in a fixed order, so the
	// PIDs and job IDs the report prints depend on the topology alone.
	// A setup that fails here fails again in each entry that needs it,
	// and that entry reads inconclusive.
	for _, setup := range []func() error{ss.listen, ss.openSocket, ss.route} {
		_ = setup()
	}
	var scan []*Entry
	for i := range catalogue {
		if catalogue[i].Scan {
			scan = append(scan, &catalogue[i])
		}
	}
	slices.SortFunc(scan, func(a, b *Entry) int { return audit.Compare(a.probe(a.Name), b.probe(b.Name)) })
	rep := &audit.Report{ConfigName: ss.c.Cfg.Name}
	var inconclusive []string
	for _, e := range scan {
		r := e.run(ss, e.Name)
		if r.Verdict == audit.Inconclusive {
			inconclusive = append(inconclusive, e.Name)
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, inconclusiveErr(ss.c, inconclusive)
}

// Reopened runs every entry that carries an E16 label against one
// session on c and returns the labels that reopened, each once, in
// catalogue order. An inconclusive entry fails it.
func Reopened(c *core.Cluster) ([]string, error) {
	ss, err := provision(c)
	if err != nil {
		return nil, err
	}
	var labels, inconclusive []string
	for i := range catalogue {
		e := &catalogue[i]
		if e.Label == "" {
			continue
		}
		switch v := e.run(ss, e.Name).Verdict; {
		case v == audit.Inconclusive:
			inconclusive = append(inconclusive, e.Name)
		case v == audit.Leaked && !slices.Contains(labels, e.Label):
			labels = append(labels, e.Label)
		}
	}
	if err := inconclusiveErr(c, inconclusive); err != nil {
		return nil, err
	}
	return labels, nil
}

// inconclusiveErr names the entries whose verdict on c was
// inconclusive, if any.
func inconclusiveErr(c *core.Cluster, names []string) error {
	if len(names) == 0 {
		return nil
	}
	return fmt.Errorf("attack: inconclusive on %s: %s", c.Cfg.Name, strings.Join(names, ", "))
}

func (ss *session) psForeign() observation {
	// Match by PID, not credential: under hidepid=1 List returns
	// redacted stubs whose Cred is zeroed, but the foreign pid
	// appearing in readdir is itself the leak.
	for _, p := range ss.c.Proc[ss.login.Name].List(ss.attacker.Cred) {
		if p.PID == ss.vproc.PID {
			return leaked(audit.Detailf("victim pid %d listed", p.PID))
		}
	}
	return omitted(audit.Note("no foreign pids in /proc listing"), ss.victimRunning())
}

func (ss *session) cmdlineRead() observation {
	cl, err := ss.c.Proc[ss.login.Name].ReadCmdline(ss.attacker.Cred, ss.vproc.PID)
	if err == nil && strings.Contains(cl, secretToken) {
		return leaked(audit.Note("read secret from /proc/<pid>/cmdline"))
	}
	return omitted(audit.Detailf("cmdline read: %v", err), ss.victimRunning())
}

// victimRunning reports whether the victim's login process is still in
// its node's table, so a view without it omitted a live process.
func (ss *session) victimRunning() bool {
	_, ok := ss.login.Procs.Lookup(ss.vproc.PID)
	return ok
}

func (ss *session) squeueForeign() observation {
	if err := ss.victimJob(); err != nil {
		return stoppedBy(err)
	}
	// The victim's lowest job ID in the attacker's squeue view, read
	// without copying the queue.
	first, secret := 0, false
	ss.c.Sched.VisitQueue(ss.attacker.Cred, func(j *sched.Job) {
		if j.User == ss.victim.UID && (first == 0 || j.ID < first) {
			first, secret = j.ID, strings.Contains(j.Spec.Command, secretToken)
		}
	})
	switch {
	case first == 0:
		st, _, err := ss.c.Sched.Placement(ss.vjobID)
		return omitted(audit.Note("no foreign jobs in squeue"), err == nil && st == sched.Running)
	case secret:
		return leaked(audit.Detailf("job %d command visible", first))
	}
	return leaked(audit.Detailf("foreign job %d visible", first))
}

func (ss *session) sshRoam() observation {
	if err := ss.victimJob(); err != nil {
		return stoppedBy(err)
	}
	if _, err := ss.c.LoginShell(ss.vjobNode, ss.attacker.Cred); err != nil {
		return stopped(audit.Denial("pam denied compute-node ssh", err))
	}
	return leaked(audit.Note("ssh to victim's compute node succeeded"))
}

func (ss *session) homeRead() observation {
	d, err := ss.c.SharedFS.ReadFile(ss.actx, ss.homeFile)
	if err != nil {
		return stopped(audit.Denial("home traversal denied", err))
	}
	return leaked(audit.Detailf("read %d bytes from victim home", len(d)))
}

func (ss *session) chmodRead() observation {
	d, err := ss.c.SharedFS.ReadFile(ss.actx, scratchFile)
	if err != nil {
		return stopped(audit.Denial("smask stripped world bits", err))
	}
	return leaked(audit.Detailf("read %d bytes via mistyped chmod", len(d)))
}

func (ss *session) tmpRead() observation {
	d, err := ss.c.NS[ss.login.Name].ReadFile(ss.actx, tmpFile)
	if err != nil {
		return stopped(audit.Denial("tmp file content protected", err))
	}
	return leaked(audit.Detailf("read %d bytes from victim tmp file", len(d)))
}

// aclGrant is the accidental-sharing scenario: the *victim* tries to
// (mis)grant the attacker access to a scratch file.
func (ss *session) aclGrant() observation {
	if err := ss.c.SharedFS.SetfaclUser(ss.vctx, scratchFile, ss.attacker.UID, 0o4); err != nil {
		return stopped(audit.Denial("acl grant rejected (no shared project group)", err))
	}
	if _, err := ss.c.SharedFS.ReadFile(ss.actx, scratchFile); err != nil {
		return stopped(audit.Denial("acl granted but read denied", err))
	}
	return leaked(audit.Note("read via stranger acl"))
}

// symlinkHarvest pre-plants a symlink where the victim's job will
// write, pointing at an attacker-readable file. The link has its own
// name, apart from symlinkClobber's, so either attempt plants its link
// whichever ran first.
func (ss *session) symlinkHarvest() observation {
	const link = "/tmp/victim-job-output.tmp"
	localFS := ss.c.LocalFS[ss.login.Name]
	err := ss.plant("/tmp/.harvest", link, func() error {
		if err := localFS.WriteFile(ss.actx, "/tmp/.harvest", nil, 0o666); err != nil {
			return err
		}
		return localFS.Chmod(ss.actx, "/tmp/.harvest", 0o666)
	})
	if err != nil {
		return stoppedBy(err)
	}
	// The victim's job writes its output "as usual".
	if err := localFS.WriteFileFollow(ss.vctx, link, []byte("checkpoint-secret"), 0o600); err != nil {
		return stopped(audit.Detailf("victim write refused: %v", err))
	}
	if d, err := localFS.ReadFile(ss.actx, "/tmp/.harvest"); err == nil && strings.Contains(string(d), "checkpoint-secret") {
		return leaked(audit.Note("victim data harvested via planted symlink"))
	}
	return stopped(audit.Note("no data harvested"))
}

// symlinkClobber is the sticky-dir clobber fs.protected_symlinks
// exists for: the planted link points at the victim's OWN results
// file, so smask cannot help (the victim has every permission on the
// target) — if the victim's routine checkpoint write follows the link,
// their results were corrupted on the attacker's say-so.
func (ss *session) symlinkClobber() observation {
	localFS := ss.c.LocalFS[ss.login.Name]
	err := ss.plant("/tmp/victim-results.dat", "/tmp/victim-checkpoint.tmp", func() error {
		return localFS.WriteFile(ss.vctx, "/tmp/victim-results.dat", []byte("precious-"+secretToken), 0o600)
	})
	if err != nil {
		return stoppedBy(err)
	}
	if err := localFS.WriteFileFollow(ss.vctx, "/tmp/victim-checkpoint.tmp", []byte("CLOBBERED"), 0o600); err != nil {
		return stopped(audit.Detailf("victim write refused: %v", err))
	}
	if d, err := localFS.ReadFile(ss.vctx, "/tmp/victim-results.dat"); err == nil && string(d) == "CLOBBERED" {
		return leaked(audit.Note("victim results clobbered via planted symlink"))
	}
	return stopped(audit.Note("victim write did not follow the planted link"))
}

func (ss *session) crossDial() observation {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.listen()
	}
	if err != nil {
		return stoppedBy(err)
	}
	conn, err := aHost.Dial(ss.attacker.Cred, netsim.TCP, ss.vjobNode, victimSvcPort)
	if err != nil {
		return stopped(audit.Denial("UBF dropped cross-user connection", err))
	}
	conn.Close()
	return leaked(audit.Note("connected to victim service"))
}

func (ss *session) rdmaTCP() observation {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.listen()
	}
	if err != nil {
		return stoppedBy(err)
	}
	qp, err := aHost.SetupQP(ss.attacker.Cred, netsim.QPViaTCP, ss.vjobNode, victimSvcPort)
	if err != nil {
		return stopped(audit.Denial("UBF dropped QP control channel", err))
	}
	qp.Close()
	return leaked(audit.Note("QP control channel connected cross-user"))
}

func (ss *session) rdmaNativeCM() observation {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.victimJob()
	}
	if err != nil {
		return stoppedBy(err)
	}
	qp, err := aHost.SetupQP(ss.attacker.Cred, netsim.QPViaNativeCM, ss.vjobNode, 0)
	if err != nil {
		return stoppedBy(err)
	}
	_ = qp.Write([]byte("rdma"))
	qp.Close()
	return leaked(audit.Note("QP established via native CM (firewall bypassed)"))
}

func (ss *session) portalForward() observation {
	if err := ss.route(); err != nil {
		return stoppedBy(err)
	}
	tok, err := ss.c.Portal.Login(ss.attacker.Cred, attackerPassword)
	if err != nil {
		return stoppedBy(err)
	}
	if _, err = ss.c.Portal.Forward(tok, "/jupyter/victim", []byte("GET /")); err != nil {
		return stopped(audit.Denial("portal forward denied end-to-end", err))
	}
	return leaked(audit.Note("reached victim's web app through portal"))
}

// tmpNameVisible is tmpNames' leak detail, rendered once: the name it
// finds is always tmpName.
var tmpNameVisible = audit.Note(fmt.Sprintf("file name %q visible", tmpName))

func (ss *session) tmpNames() observation {
	names, err := ss.c.NS[ss.login.Name].ReadDir(ss.actx, "/tmp")
	if err != nil {
		return stoppedBy(err)
	}
	// The victim's own file, not a link the attacker planted.
	for _, n := range names {
		if n == tmpName {
			return leaked(tmpNameVisible)
		}
	}
	return stopped(audit.Note("no victim names in /tmp"))
}

func (ss *session) abstractSend() observation {
	loginHost, err := ss.c.Host(ss.login.Name)
	if err == nil {
		err = ss.openSocket()
	}
	if err != nil {
		return stoppedBy(err)
	}
	if err := loginHost.DialAbstract(ss.attacker.Cred, victimSocket, []byte("injected")); err != nil {
		return stoppedBy(err)
	}
	if _, from, ok := ss.vsock.Recv(); ok && from == ss.attacker.UID {
		return leaked(audit.Note("datagram delivered cross-user"))
	}
	return stopped(audit.Note("no delivery"))
}

// gpuDeviceOpen is the /dev permission half of §IV-F: can the attacker
// open the device of the victim's running GPU job from outside? No
// colocation is needed, so whole-node scheduling cannot mask it.
func (ss *session) gpuDeviceOpen() observation {
	if err := ss.gpuJob(); err != nil {
		return stoppedBy(err)
	}
	var err error
	for _, d := range ss.c.GPUs.Devices(ss.gjobNode) {
		if _, err = d.Read(ss.attacker.Cred, 0, 1); err == nil {
			return leaked(audit.Note("opened the victim's GPU device"))
		}
	}
	return stopped(audit.Denial("device permissions denied", err))
}

// residue is the attacker's read of dev, the victim's GPU on vnode,
// after the victim's job released it, from anode: the node of the
// attacker's own job, or vnode itself when the attacker reads from
// outside. It names which of three things kept the secret from the
// attacker: the device refused the read, the epilog cleared it, or the
// scheduler kept the attacker's job off the victim's node.
func (ss *session) residue(dev *gpu.Device, vnode, anode string, secret []byte) observation {
	if anode != vnode {
		return omitted(audit.Note("no residue: attacker kept off victim's node"), true)
	}
	data, err := dev.Read(ss.attacker.Cred, 512, len(secret))
	switch {
	case err != nil:
		return stopped(audit.Denial("no residue: device access denied", err))
	case bytes.Equal(data, secret):
		return leaked(audit.Note("previous user's data read from GPU memory"))
	}
	return omitted(audit.Note("no residue: device memory cleared"), true)
}

// gpuResidue is the two-phase GPU handover on a live cluster: the
// victim's GPU job writes a secret to device memory and completes; the
// attacker then reads the same device looking for the residue. The
// read is blocked by the prolog's device-permission binding and the
// residue itself is destroyed by the epilog clear — both halves of the
// gpu measure — so the step reopens under the gpu ablation regardless
// of scheduling policy.
func (ss *session) gpuResidue() observation {
	secret := []byte(secretToken + "-GPU-WEIGHTS")
	vj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "gpu-train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 2,
	})
	node := ""
	if err == nil {
		node, err = ss.place(vj, 32)
	}
	if err != nil {
		return stoppedBy(err)
	}
	if node == "" {
		_ = ss.c.Sched.Cancel(ss.victim.Cred, vj)
		return stopped(audit.Note("victim gpu job never placed"))
	}
	dev, err := ss.gpuSecret(node, secret)
	if err != nil {
		return stoppedBy(err)
	}
	// Let the victim's job run out (Duration 2) and its epilog fire.
	for i := 0; i < 8; i++ {
		if st, _, err := ss.c.Sched.Placement(vj); err == nil && st != sched.Running && st != sched.Pending {
			break
		}
		ss.c.Step()
	}
	return ss.residue(dev, node, node, secret)
}

// gpuHandover is the job-to-job form of the GPU handover: the
// victim's GPU job ends and drains, then the attacker's own GPU job
// starts on the same node pool and reads the victim's device if it
// landed on its node. Under whole-node scheduling the victim's long
// job, when live, keeps the attacker off the victim's node; on an idle
// cluster nothing does.
func (ss *session) gpuHandover() observation {
	secret := []byte("VICTIM-GPU-WEIGHTS")
	vj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "gpu-train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 2,
	})
	if err != nil {
		return stoppedBy(err)
	}
	ss.c.Step()
	st, vnode, err := ss.c.Sched.Placement(vj)
	if err != nil || st != sched.Running {
		return stopped(audit.Detailf("victim gpu job not running: %v", err))
	}
	dev, err := ss.gpuSecret(vnode, secret)
	if err != nil {
		return stoppedBy(err)
	}
	// Victim job ends; device is released (and cleared, if configured).
	ss.c.RunAll(4)
	aj, err := ss.c.Sched.Submit(ss.attacker.Cred, sched.JobSpec{
		Name: "gpu-probe", Command: "probe", Cores: 1, MemB: 1, GPUs: 1, Duration: 8,
	})
	if err != nil {
		return stoppedBy(err)
	}
	var anode string
	for i := 0; i < 10; i++ {
		ss.c.Step()
		if st, anode, _ = ss.c.Sched.Placement(aj); st == sched.Running {
			break
		}
	}
	if st != sched.Running {
		return stopped(audit.Note("attacker gpu job never started"))
	}
	// Read the residue, then tear the probe job down so it does not
	// grant the attacker a legitimate pam_slurm foothold for later
	// attempts.
	o := ss.residue(dev, vnode, anode, secret)
	_ = ss.c.Sched.Cancel(ss.attacker.Cred, aj)
	return o
}

// containerEscape runs a container the attacker was never approved
// for: the Run itself succeeding is the admission-control escape.
func (ss *session) containerEscape() observation {
	node := ss.c.Compute[len(ss.c.Compute)-1]
	nHost, err := ss.c.Host(node.Name)
	if err != nil {
		return stoppedBy(err)
	}
	ct, err := ss.c.Containers.Run(ss.attacker.Cred, node, ss.c.NS[node.Name], nHost,
		container.RunSpec{Image: ss.image()})
	if err != nil {
		return stopped(audit.Denial("container admission denied", err))
	}
	if _, err := ct.ReadFile(ss.homeFile); err == nil {
		return leaked(audit.Note("unapproved container ran and read victim home from inside"))
	}
	return leaked(audit.Note("unapproved container ran (host FS controls still bound inside)"))
}

// containerHomeRead runs an approved container and checks that the
// host filesystem controls still bind inside it.
func (ss *session) containerHomeRead() observation {
	aHost, err := ss.attackerHost()
	var ct *container.Container
	if err == nil {
		ct, err = ss.approvedContainer(aHost)
	}
	if err != nil {
		return stoppedBy(err)
	}
	if _, err = ct.ReadFile(ss.homeFile); err != nil {
		return stopped(audit.Denial("host FS controls bound inside container", err))
	}
	return leaked(audit.Note("read victim home from inside container"))
}
