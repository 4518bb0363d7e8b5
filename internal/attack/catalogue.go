package attack

import (
	"bytes"
	"slices"
	"strings"

	"repro/internal/audit"
	"repro/internal/container"
	"repro/internal/core"
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

	attempt func(ss *session) (leaked bool, detail audit.Detail)
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
	leaked, detail := e.attempt(ss)
	return audit.Result{Probe: e.probe(name), Leaked: leaked, Detail: detail}
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
func LeakScan(c *core.Cluster) (*audit.Report, error) {
	ss, err := newSession(c)
	if err != nil {
		return nil, err
	}
	// The victim's activity comes first and in a fixed order, so the
	// PIDs and job IDs the report prints depend on the topology alone.
	ss.spawn()
	for _, setup := range []func() error{ss.seedHome, ss.seedScratch, ss.seedTmp, ss.listen, ss.openSocket, ss.route} {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	var scan []*Entry
	for i := range catalogue {
		if catalogue[i].Scan {
			scan = append(scan, &catalogue[i])
		}
	}
	slices.SortFunc(scan, func(a, b *Entry) int { return audit.Compare(a.probe(a.Name), b.probe(b.Name)) })
	rep := &audit.Report{ConfigName: c.Cfg.Name}
	for _, e := range scan {
		rep.Results = append(rep.Results, e.run(ss, e.Name))
	}
	return rep, nil
}

// Reopened runs every entry that carries an E16 label against one
// session on c and returns the labels that reopened, each once, in
// catalogue order.
func Reopened(c *core.Cluster) ([]string, error) {
	ss, err := newSession(c)
	if err != nil {
		return nil, err
	}
	var labels []string
	for i := range catalogue {
		e := &catalogue[i]
		if e.Label != "" && e.run(ss, e.Name).Leaked && !slices.Contains(labels, e.Label) {
			labels = append(labels, e.Label)
		}
	}
	return labels, nil
}

func (ss *session) psForeign() (bool, audit.Detail) {
	ss.spawn()
	// Match by PID, not credential: under hidepid=1 List returns
	// redacted stubs whose Cred is zeroed, but the foreign pid
	// appearing in readdir is itself the leak.
	for _, p := range ss.c.Proc[ss.login.Name].List(ss.attacker.Cred) {
		if p.PID == ss.vproc.PID {
			return true, audit.Detailf("victim pid %d listed", p.PID)
		}
	}
	return false, audit.Note("no foreign pids in /proc listing")
}

func (ss *session) cmdlineRead() (bool, audit.Detail) {
	ss.spawn()
	cl, err := ss.c.Proc[ss.login.Name].ReadCmdline(ss.attacker.Cred, ss.vproc.PID)
	if err == nil && strings.Contains(cl, secretToken) {
		return true, audit.Note("read secret from /proc/<pid>/cmdline")
	}
	return false, audit.Detailf("cmdline read: %v", err)
}

func (ss *session) squeueForeign() (bool, audit.Detail) {
	if err := ss.victimJob(); err != nil {
		return false, audit.Cause(err)
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
		return false, audit.Note("no foreign jobs in squeue")
	case secret:
		return true, audit.Detailf("job %d command visible", first)
	}
	return true, audit.Detailf("foreign job %d visible", first)
}

func (ss *session) sshRoam() (bool, audit.Detail) {
	if err := ss.victimJob(); err != nil {
		return false, audit.Cause(err)
	}
	_, err := ss.c.LoginShell(ss.vjobNode, ss.attacker.Cred)
	if err == nil {
		return true, audit.Note("ssh to victim's compute node succeeded")
	}
	return false, audit.Denial("pam denied compute-node ssh", err)
}

func (ss *session) homeRead() (bool, audit.Detail) {
	if err := ss.seedHome(); err != nil {
		return false, audit.Cause(err)
	}
	d, err := ss.c.SharedFS.ReadFile(ss.actx, ss.victim.HomePath+"/results.csv")
	if err == nil {
		return true, audit.Detailf("read %d bytes from victim home", len(d))
	}
	return false, audit.Denial("home traversal denied", err)
}

func (ss *session) chmodRead() (bool, audit.Detail) {
	if err := ss.seedScratch(); err != nil {
		return false, audit.Cause(err)
	}
	d, err := ss.c.SharedFS.ReadFile(ss.actx, scratchFile)
	if err == nil {
		return true, audit.Detailf("read %d bytes via mistyped chmod", len(d))
	}
	return false, audit.Denial("smask stripped world bits", err)
}

func (ss *session) tmpRead() (bool, audit.Detail) {
	if err := ss.seedTmp(); err != nil {
		return false, audit.Cause(err)
	}
	d, err := ss.c.NS[ss.login.Name].ReadFile(ss.actx, tmpFile)
	if err == nil {
		return true, audit.Detailf("read %d bytes from victim tmp file", len(d))
	}
	return false, audit.Denial("tmp file content protected", err)
}

// aclGrant is the accidental-sharing scenario: the *victim* tries to
// (mis)grant the attacker access to a scratch file.
func (ss *session) aclGrant() (bool, audit.Detail) {
	if err := ss.seedScratch(); err != nil {
		return false, audit.Cause(err)
	}
	if err := ss.c.SharedFS.SetfaclUser(ss.vctx, scratchFile, ss.attacker.UID, 0o4); err != nil {
		return false, audit.Denial("acl grant rejected (no shared project group)", err)
	}
	_, err := ss.c.SharedFS.ReadFile(ss.actx, scratchFile)
	if err == nil {
		return true, audit.Note("read via stranger acl")
	}
	return false, audit.Denial("acl granted but read denied", err)
}

// symlinkHarvest pre-plants a symlink where the victim's job will
// write, pointing at an attacker-readable file. The link has its own
// name, apart from symlinkClobber's, so either attempt plants its link
// whichever ran first.
func (ss *session) symlinkHarvest() (bool, audit.Detail) {
	const link = "/tmp/victim-job-output.tmp"
	localFS := ss.c.LocalFS[ss.login.Name]
	if err := localFS.WriteFile(ss.actx, "/tmp/.harvest", nil, 0o666); err != nil {
		return false, audit.Cause(err)
	}
	if err := localFS.Chmod(ss.actx, "/tmp/.harvest", 0o666); err != nil {
		return false, audit.Cause(err)
	}
	if err := localFS.Symlink(ss.actx, "/tmp/.harvest", link); err != nil {
		return false, audit.Cause(err)
	}
	// The victim's job writes its output "as usual".
	if err := localFS.WriteFileFollow(ss.vctx, link, []byte("checkpoint-secret"), 0o600); err != nil {
		return false, audit.Detailf("victim write refused: %v", err)
	}
	if d, err := localFS.ReadFile(ss.actx, "/tmp/.harvest"); err == nil && strings.Contains(string(d), "checkpoint-secret") {
		return true, audit.Note("victim data harvested via planted symlink")
	}
	return false, audit.Note("no data harvested")
}

// symlinkClobber is the sticky-dir clobber fs.protected_symlinks
// exists for: the planted link points at the victim's OWN results
// file, so smask cannot help (the victim has every permission on the
// target) — if the victim's routine checkpoint write follows the link,
// their results were corrupted on the attacker's say-so.
func (ss *session) symlinkClobber() (bool, audit.Detail) {
	localFS := ss.c.LocalFS[ss.login.Name]
	if err := localFS.WriteFile(ss.vctx, "/tmp/victim-results.dat", []byte("precious-"+secretToken), 0o600); err != nil {
		return false, audit.Cause(err)
	}
	if err := localFS.Symlink(ss.actx, "/tmp/victim-results.dat", "/tmp/victim-checkpoint.tmp"); err != nil {
		return false, audit.Cause(err)
	}
	if err := localFS.WriteFileFollow(ss.vctx, "/tmp/victim-checkpoint.tmp", []byte("CLOBBERED"), 0o600); err != nil {
		return false, audit.Detailf("victim write refused: %v", err)
	}
	if d, err := localFS.ReadFile(ss.vctx, "/tmp/victim-results.dat"); err == nil && string(d) == "CLOBBERED" {
		return true, audit.Note("victim results clobbered via planted symlink")
	}
	return false, audit.Note("victim write did not follow the planted link")
}

func (ss *session) crossDial() (bool, audit.Detail) {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.listen()
	}
	if err != nil {
		return false, audit.Cause(err)
	}
	conn, err := aHost.Dial(ss.attacker.Cred, netsim.TCP, ss.vjobNode, victimSvcPort)
	if err == nil {
		conn.Close()
		return true, audit.Note("connected to victim service")
	}
	return false, audit.Denial("UBF dropped cross-user connection", err)
}

func (ss *session) rdmaTCP() (bool, audit.Detail) {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.listen()
	}
	if err != nil {
		return false, audit.Cause(err)
	}
	qp, err := aHost.SetupQP(ss.attacker.Cred, netsim.QPViaTCP, ss.vjobNode, victimSvcPort)
	if err == nil {
		qp.Close()
		return true, audit.Note("QP control channel connected cross-user")
	}
	return false, audit.Denial("UBF dropped QP control channel", err)
}

func (ss *session) rdmaNativeCM() (bool, audit.Detail) {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.victimJob()
	}
	if err != nil {
		return false, audit.Cause(err)
	}
	qp, err := aHost.SetupQP(ss.attacker.Cred, netsim.QPViaNativeCM, ss.vjobNode, 0)
	if err != nil {
		return false, audit.Cause(err)
	}
	_ = qp.Write([]byte("rdma"))
	qp.Close()
	return true, audit.Note("QP established via native CM (firewall bypassed)")
}

func (ss *session) portalForward() (bool, audit.Detail) {
	if err := ss.route(); err != nil {
		return false, audit.Cause(err)
	}
	tok, err := ss.c.Portal.Login(ss.attacker.Cred, attackerPassword)
	if err != nil {
		return false, audit.Cause(err)
	}
	if _, err = ss.c.Portal.Forward(tok, "/jupyter/victim", []byte("GET /")); err == nil {
		return true, audit.Note("reached victim's web app through portal")
	}
	return false, audit.Denial("portal forward denied end-to-end", err)
}

func (ss *session) tmpNames() (bool, audit.Detail) {
	if err := ss.seedTmp(); err != nil {
		return false, audit.Cause(err)
	}
	names, err := ss.c.NS[ss.login.Name].ReadDir(ss.actx, "/tmp")
	if err != nil {
		return false, audit.Cause(err)
	}
	// The victim's own file, not a link the attacker planted.
	for _, n := range names {
		if n == tmpName {
			return true, audit.Detailf("file name %q visible", n)
		}
	}
	return false, audit.Note("no victim names in /tmp")
}

func (ss *session) abstractSend() (bool, audit.Detail) {
	loginHost, err := ss.c.Host(ss.login.Name)
	if err == nil {
		err = ss.openSocket()
	}
	if err != nil {
		return false, audit.Cause(err)
	}
	if err := loginHost.DialAbstract(ss.attacker.Cred, victimSocket, []byte("injected")); err != nil {
		return false, audit.Cause(err)
	}
	if _, from, ok := ss.vsock.Recv(); ok && from == ss.attacker.UID {
		return true, audit.Note("datagram delivered cross-user")
	}
	return false, audit.Note("no delivery")
}

// gpuDeviceOpen is the /dev permission half of §IV-F: can the attacker
// open the device of the victim's running GPU job from outside? No
// colocation is needed, so whole-node scheduling cannot mask it.
func (ss *session) gpuDeviceOpen() (bool, audit.Detail) {
	if err := ss.gpuJob(); err != nil {
		return false, audit.Cause(err)
	}
	var err error
	for _, d := range ss.c.GPUs.Devices(ss.gjobNode) {
		if _, err = d.Read(ss.attacker.Cred, 0, 1); err == nil {
			return true, audit.Note("opened the victim's GPU device")
		}
	}
	return false, audit.Denial("device permissions denied", err)
}

// gpuResidue is the two-phase GPU handover on a live cluster: the
// victim's GPU job writes a secret to device memory and completes; the
// attacker then reads the same node's devices looking for the residue.
// The read is blocked by the prolog's device-permission binding and
// the residue itself is destroyed by the epilog clear — both halves of
// the gpu measure — so the step reopens under the gpu ablation
// regardless of scheduling policy.
func (ss *session) gpuResidue() (bool, audit.Detail) {
	secret := []byte(secretToken + "-GPU-WEIGHTS")
	vj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "gpu-train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 2,
	})
	if err != nil {
		return false, audit.Detailf("victim gpu job rejected: %v", err)
	}
	node, err := ss.place(vj, 32)
	if err != nil {
		return false, audit.Cause(err)
	}
	if node == "" {
		_ = ss.c.Sched.Cancel(ss.victim.Cred, vj)
		return false, audit.Note("victim gpu job never placed")
	}
	if err := ss.victimDevice(node).Write(ss.victim.Cred, 512, secret); err != nil {
		return false, audit.Detailf("victim gpu write failed: %v", err)
	}
	// Let the victim's job run out (Duration 2) and its epilog fire.
	for i := 0; i < 8; i++ {
		if st, _, err := ss.c.Sched.Placement(vj); err == nil && st != sched.Running && st != sched.Pending {
			break
		}
		ss.c.Step()
	}
	for _, d := range ss.c.GPUs.Devices(node) {
		if data, err := d.Read(ss.attacker.Cred, 512, len(secret)); err == nil && bytes.Equal(data, secret) {
			return true, audit.Note("previous user's data read from GPU memory")
		}
	}
	return false, audit.Note("no residue readable (cleared or access denied)")
}

// gpuHandover is the job-to-job form of the GPU handover: the
// victim's GPU job ends and drains, then the attacker's own GPU job
// starts on the same node pool and reads every device there. Under
// whole-node scheduling the victim's long job, when live, keeps the
// attacker off the victim's node; on an idle cluster nothing does.
func (ss *session) gpuHandover() (bool, audit.Detail) {
	secret := []byte("VICTIM-GPU-WEIGHTS")
	vj, err := ss.c.Sched.Submit(ss.victim.Cred, sched.JobSpec{
		Name: "gpu-train", Command: "train", Cores: 1, MemB: 1, GPUs: 1, Duration: 2,
	})
	if err != nil {
		return false, audit.Cause(err)
	}
	ss.c.Step()
	st, vnode, err := ss.c.Sched.Placement(vj)
	if err != nil || st != sched.Running {
		return false, audit.Detailf("victim gpu job not running: %v", err)
	}
	if err := ss.victimDevice(vnode).Write(ss.victim.Cred, 512, secret); err != nil {
		return false, audit.Detailf("victim gpu write failed: %v", err)
	}
	// Victim job ends; device is released (and cleared, if configured).
	ss.c.RunAll(4)
	aj, err := ss.c.Sched.Submit(ss.attacker.Cred, sched.JobSpec{
		Name: "gpu-probe", Command: "probe", Cores: 1, MemB: 1, GPUs: 1, Duration: 8,
	})
	if err != nil {
		return false, audit.Cause(err)
	}
	var anode string
	for i := 0; i < 10; i++ {
		ss.c.Step()
		if st, anode, _ = ss.c.Sched.Placement(aj); st == sched.Running {
			break
		}
	}
	if st != sched.Running {
		return false, audit.Note("attacker gpu job never started")
	}
	// Read residue from every device on the attacker's node, then tear
	// the probe job down so it does not grant the attacker a legitimate
	// pam_slurm foothold for later attempts.
	leaked := false
	for _, d := range ss.c.GPUs.Devices(anode) {
		if data, err := d.Read(ss.attacker.Cred, 512, len(secret)); err == nil && bytes.Equal(data, secret) {
			leaked = true
		}
	}
	_ = ss.c.Sched.Cancel(ss.attacker.Cred, aj)
	if leaked {
		return true, audit.Note("previous user's data read from GPU memory")
	}
	return false, audit.Note("no residue readable (cleared or access denied)")
}

// containerEscape runs a container the attacker was never approved
// for: the Run itself succeeding is the admission-control escape.
func (ss *session) containerEscape() (bool, audit.Detail) {
	node := ss.c.Compute[len(ss.c.Compute)-1]
	nHost, err := ss.c.Host(node.Name)
	if err != nil {
		return false, audit.Cause(err)
	}
	ct, err := ss.c.Containers.Run(ss.attacker.Cred, node, ss.c.NS[node.Name], nHost,
		container.RunSpec{Image: ss.image()})
	if err != nil {
		return false, audit.Denial("container admission denied", err)
	}
	if err := ss.seedHome(); err != nil {
		return false, audit.Cause(err)
	}
	if _, err := ct.ReadFile(ss.victim.HomePath + "/results.csv"); err == nil {
		return true, audit.Note("unapproved container ran and read victim home from inside")
	}
	return true, audit.Note("unapproved container ran (host FS controls still bound inside)")
}

// containerHomeRead runs an approved container and checks that the
// host filesystem controls still bind inside it.
func (ss *session) containerHomeRead() (bool, audit.Detail) {
	aHost, err := ss.attackerHost()
	if err == nil {
		err = ss.seedHome()
	}
	if err != nil {
		return false, audit.Cause(err)
	}
	image := ss.image()
	ss.c.Containers.Allow(ss.attacker.UID)
	node := ss.c.Compute[len(ss.c.Compute)-1]
	ct, err := ss.c.Containers.Run(ss.attacker.Cred, node, ss.c.NS[node.Name], aHost,
		container.RunSpec{Image: image})
	if err != nil {
		return false, audit.Cause(err)
	}
	if _, err = ct.ReadFile(ss.victim.HomePath + "/results.csv"); err == nil {
		return true, audit.Note("read victim home from inside container")
	}
	return false, audit.Denial("host FS controls bound inside container", err)
}
