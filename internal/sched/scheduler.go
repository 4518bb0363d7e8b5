package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/ids"
	"repro/internal/simos"
	"repro/internal/slab"
)

// Config is the scheduler's separation-relevant configuration.
type Config struct {
	// PrivateData hides other users' jobs and accounting (paper §IV-B).
	PrivateData bool
	// Policy is the node-sharing policy.
	Policy SharingPolicy
	// PamSlurm gates compute-node ssh on having a job there.
	PamSlurm bool
	// CoordinatorGIDs may view all jobs even under PrivateData
	// (Slurm's PrivateData exempts operators/coordinators).
	CoordinatorGIDs []ids.GID
}

// Hook runs at job start (prolog) or end (epilog) on each node of the
// job. The GPU substrate registers both. The job is the scheduler's
// own, recycled at Reset: a hook reads it and must not keep it.
type Hook func(job *Job, node *simos.Node) error

// userCount is one entry of a node's per-user job tally. Nodes host a
// handful of users at most (one, under user-whole-node), so a compact
// slice beats a map at 10k-node scale: no per-node map header, no
// hashing on the hot path.
type userCount struct {
	uid ids.UID
	n   int
}

// nodeState tracks allocations on one node.
type nodeState struct {
	node      *simos.Node
	usedCores int
	usedMem   int64
	usedGPUs  int
	totalGPUs int
	jobs      []*Job      // jobs placed on the node, unordered
	users     []userCount // per-user #jobs on node, unordered
	// memCommit sums max(request, actual) memory over resident jobs;
	// overCount counts resident jobs whose actual usage exceeds the
	// node outright. Together they decide oomArmed without a scan.
	memCommit int64
	overCount int
}

func (ns *nodeState) freeCores() int { return ns.node.Cores - ns.usedCores }
func (ns *nodeState) freeMem() int64 { return ns.node.MemB - ns.usedMem }
func (ns *nodeState) freeGPUs() int  { return ns.totalGPUs - ns.usedGPUs }
func (ns *nodeState) empty() bool    { return len(ns.jobs) == 0 }
func (ns *nodeState) soleUser(u ids.UID) bool {
	for _, uc := range ns.users {
		if uc.uid != u {
			return false
		}
	}
	return true
}

// addUser counts one more job of u on the node.
func (ns *nodeState) addUser(u ids.UID) {
	for i := range ns.users {
		if ns.users[i].uid == u {
			ns.users[i].n++
			return
		}
	}
	ns.users = append(ns.users, userCount{uid: u, n: 1})
}

// delUser counts one job of u off the node, dropping the entry at zero.
func (ns *nodeState) delUser(u ids.UID) {
	for i := range ns.users {
		if ns.users[i].uid == u {
			ns.users[i].n--
			if ns.users[i].n == 0 {
				last := len(ns.users) - 1
				ns.users[i] = ns.users[last]
				ns.users = ns.users[:last]
			}
			return
		}
	}
}

// userJobs returns how many jobs of u run on the node.
func (ns *nodeState) userJobs(u ids.UID) int {
	for _, uc := range ns.users {
		if uc.uid == u {
			return uc.n
		}
	}
	return 0
}

// Scheduler is the cluster batch scheduler.
//
// Each job is stored once, in the job table, and referenced from the
// one live index its state calls for: the pending slice while Pending,
// the completion calendar (and the nodes it occupies) while Running.
// The per-tick hot path is event-driven rather than scan-based (see
// placement.go and calendar.go): the calendar pops exactly the due
// jobs, and capacity aggregates reject unplaceable jobs — or skip the
// whole scheduling pass, or end it once the cluster fills — without
// walking nodes. Step never scans the job table.
//
// A scheduler is not safe for concurrent use; the cluster's owner
// calls it (DESIGN.md §7, "One owner per cluster"). Hooks run inside
// Step and RunAll and must not call back into it.
type Scheduler struct {
	Cfg Config

	now    int64
	nodes  []*nodeState
	byName map[string]*nodeState // for HasJobOn; jobs index nodes by task
	// jobs is the job table: every job since New or Reset at index
	// ID-1 (IDs are dense from 1, so the next ID is len(jobs)+1).
	jobs    []*Job
	pending []*Job // the Pending jobs in submit order, i.e. ID order
	// calendar schedules completions by end tick and is the running
	// set: each start links the job, each finish unlinks it. due is
	// its reusable pop buffer.
	calendar calendar
	due      []*Job
	records  []*Job // the finished jobs, in finish order: Sacct's rows
	byID     []*Job // crash scratch: one node's jobs, sorted by ID
	// jobSlab backs every Job in the table and gidSlab its credential's
	// groups; nodeSlab, coreSlab and taskSlab back the per-node slices
	// tryStart fills. All five are rewound by Reset (package slab).
	jobSlab  slab.Slab[Job]
	gidSlab  slab.Slab[ids.GID]
	nodeSlab slab.Slab[string]
	coreSlab slab.Slab[int]
	taskSlab slab.Slab[task]
	prologs  []Hook
	epilogs  []Hook
	// defaultScope aggregates capacity over all compute nodes;
	// scratch is the allocation-free placement buffer (placement.go).
	defaultScope *capScope
	scratch      placeScratch
	// armedNodes counts nodes whose resident jobs oversubscribe
	// memory: the OOM fault-injection pass runs only when nonzero.
	armedNodes int
	// queueBlocked is the event-driven gate on the scheduling pass:
	// set after any pass (capacity only shrinks within one), cleared
	// by whatever could make a pending job startable — a submit, a
	// resource release, a node coming back up.
	queueBlocked bool
	// lastDown mirrors each node's Down() state so the per-tick walk
	// detects external crash/restore transitions and re-opens the
	// queue gate on restores. The walk refreshes it before every
	// scheduling pass, so fit reads the mirror instead of the node.
	lastDown []bool
	// computeCores/maxNodeGPUs are fixed at New: total compute cores
	// (the per-tick totalCoreTicks increment and the Submit
	// satisfiability bound) and the largest per-node GPU count.
	computeCores int64
	maxNodeGPUs  int
	// busyCores sums Spec.Cores over running jobs (maintained on
	// start/finish); busyCoreTicks accumulates it each tick for the
	// utilization metric of experiment E4.
	busyCores      int64
	busyCoreTicks  int64
	totalCoreTicks int64
	// crashes counts node OOM crashes; cofailures counts jobs of
	// *other* users killed by someone else's OOM (blast radius).
	crashes    int
	cofailures int
	// peakUsers is the most distinct users any node has hosted at
	// once, raised at placement: E4's one-user-per-node check (§IV-B).
	peakUsers int
	// stepCount/ffTicks feed the observability layer: real ticks
	// executed vs event-free ticks the analytic fast-forward skipped
	// (stepCount + ffTicks = total logical ticks advanced). Plain
	// int64s — the per-tick cost is one increment — cleared by Reset
	// like every other trial-scoped tally.
	stepCount int64
	ffTicks   int64
	// gen counts logical mutations since construction or the last
	// Reset: zero proves the scheduler is already pristine, so Reset
	// skips the O(nodes) rewind entirely.
	gen uint64
}

// Scheduler errors.
var (
	ErrNoSuchJob     = errors.New("sched: no such job")
	ErrNotOwner      = errors.New("sched: not job owner")
	ErrUnsatisfiable = errors.New("sched: request can never be satisfied")
	ErrBadSpec       = errors.New("sched: invalid job spec")
	ErrNoJobOnNode   = errors.New("pam_slurm: no running job on the node")
)

// New creates a scheduler over the given nodes. gpusPerNode sets how
// many GPU slots each compute node exposes (0 for CPU-only clusters).
func New(cfg Config, nodes []*simos.Node, gpusPerNode int) *Scheduler {
	s := &Scheduler{
		Cfg:    cfg,
		byName: make(map[string]*nodeState),
	}
	members, maxCores := 0, 0
	for _, n := range nodes {
		st := &nodeState{node: n, totalGPUs: gpusPerNode}
		s.nodes = append(s.nodes, st)
		s.byName[n.Name] = st
		if n.Kind == simos.Compute {
			members++
			s.computeCores += int64(n.Cores)
			maxCores = max(maxCores, n.Cores)
			if st.totalGPUs > s.maxNodeGPUs {
				s.maxNodeGPUs = st.totalGPUs
			}
		}
		if cfg.PamSlurm && n.Kind == simos.Compute {
			n.AddPAMHook(s.pamSlurmHook())
		}
	}
	// A job takes at least one core on each node it runs on, so a
	// node's job list never outgrows its core count: carve every list,
	// and the crash scratch that copies one, out of one array here
	// instead of growing each on the hot path.
	lists := make([]*Job, s.computeCores+int64(maxCores))
	s.byID, lists = lists[:0:maxCores], lists[maxCores:]
	s.defaultScope = newCapScope(members, s.maxNodeGPUs)
	for _, ns := range s.nodes {
		if ns.node.Kind == simos.Compute {
			ns.jobs, lists = lists[:0:ns.node.Cores], lists[ns.node.Cores:]
			s.defaultScope.enroll(ns)
		}
	}
	s.lastDown = make([]bool, len(s.nodes))
	return s
}

// Reset rewinds the scheduler to its freshly-constructed state: time
// and job numbering restart, the job table, pending queue, completion
// calendar, accounting records and crash counters empty out, every
// node's allocations clear, and the capacity scope is rebuilt over the
// (again empty) compute nodes. Cluster-assembly wiring survives: the
// pam_slurm node hooks New installs and the prolog/epilog hooks
// registered while the cluster was assembled (the GPU manager's) stay
// in place. The method reuses every existing allocation: maps are
// cleared, slices are cleared and truncated, and the job, groups and
// placement slabs keep their chunks, zeroed, for the next trial. A
// Reset on a drained scheduler therefore allocates nothing, and
// retains no job, name or credential of the old trial. An untouched
// scheduler (no submit, cancel or step since construction or the last
// Reset) returns immediately.
func (s *Scheduler) Reset() {
	if s.gen == 0 {
		return
	}
	s.gen = 0
	s.now = 0
	clear(s.jobs)
	s.jobs = s.jobs[:0]
	clear(s.pending)
	s.pending = s.pending[:0]
	s.calendar = calendar{}
	clear(s.due)
	s.due = s.due[:0]
	clear(s.records)
	s.records = s.records[:0]
	s.jobSlab.Reset()
	s.gidSlab.Reset()
	s.nodeSlab.Reset()
	s.coreSlab.Reset()
	s.taskSlab.Reset()
	s.queueBlocked = false
	s.armedNodes = 0
	for i := range s.lastDown {
		s.lastDown[i] = false
	}
	s.busyCores, s.busyCoreTicks, s.totalCoreTicks = 0, 0, 0
	s.crashes, s.cofailures = 0, 0
	s.peakUsers = 0
	s.stepCount, s.ffTicks = 0, 0
	s.defaultScope.reset()
	for _, ns := range s.nodes {
		ns.usedCores, ns.usedMem, ns.usedGPUs = 0, 0, 0
		clear(ns.jobs)
		ns.jobs = ns.jobs[:0]
		ns.users = ns.users[:0]
		ns.memCommit, ns.overCount = 0, 0
		if ns.node.Kind == simos.Compute {
			s.defaultScope.enroll(ns)
		}
	}
}

// pamSlurmHook implements pam_slurm: allow login only with a running
// job on the node (paper §IV-B).
func (s *Scheduler) pamSlurmHook() simos.PAMHook {
	return func(node *simos.Node, uid ids.UID) error {
		if uid == ids.Root {
			return nil
		}
		if s.HasJobOn(uid, node.Name) {
			return nil
		}
		return &PAMError{UID: uid, Node: node.Name}
	}
}

// PAMError is a login pam_slurm refused because UID has no running
// job on Node. It unwraps to ErrNoJobOnNode; the text is built only
// when Error is called.
type PAMError struct {
	UID  ids.UID
	Node string
}

func (e *PAMError) Error() string {
	return "pam_slurm: uid " + strconv.Itoa(int(e.UID)) + " has no running job on " + e.Node
}

func (e *PAMError) Unwrap() error { return ErrNoJobOnNode }

// AddProlog registers a job-start hook.
func (s *Scheduler) AddProlog(h Hook) {
	s.prologs = append(s.prologs, h)
}

// AddEpilog registers a job-end hook.
func (s *Scheduler) AddEpilog(h Hook) {
	s.epilogs = append(s.epilogs, h)
}

// Submit enqueues a job for cred and returns its ID, what sbatch
// prints; Job reads the job back. It validates that the request fits
// the cluster at all.
func (s *Scheduler) Submit(cred ids.Credential, spec JobSpec) (int, error) {
	if spec.Cores <= 0 || spec.Duration <= 0 {
		return 0, fmt.Errorf("%w: cores=%d duration=%d", ErrBadSpec, spec.Cores, spec.Duration)
	}
	if int64(spec.Cores) > s.computeCores {
		return 0, fmt.Errorf("%w: %d cores > cluster %d", ErrUnsatisfiable, spec.Cores, s.computeCores)
	}
	// The GPU request is per node, so it must fit a single node.
	if spec.GPUs > s.maxNodeGPUs {
		return 0, fmt.Errorf("%w: %d gpus/node > node max %d", ErrUnsatisfiable, spec.GPUs, s.maxNodeGPUs)
	}
	// The job's private credential: nothing writes to it after Submit,
	// so its task processes share it. Nil or empty groups stay nil, as
	// Credential.Clone leaves them.
	c := cred
	c.Groups = nil
	if n := len(cred.Groups); n > 0 {
		c.Groups = s.gidSlab.Take(n)
		copy(c.Groups, cred.Groups)
	}
	// The slot comes zeroed (State Pending); fields are stored one by
	// one, as a whole-struct store pays a bulk write barrier and copy.
	j := &s.jobSlab.Take(1)[0]
	j.ID = len(s.jobs) + 1
	j.User = cred.UID
	j.Cred = c
	j.Spec.Name = spec.Name
	j.Spec.Command = spec.Command
	j.Spec.WorkDir = spec.WorkDir
	j.Spec.Cores = spec.Cores
	j.Spec.MemB = spec.MemB
	j.Spec.GPUs = spec.GPUs
	j.Spec.Duration = spec.Duration
	j.Spec.ActualMemB = spec.ActualMemB
	j.Submit = s.now
	s.gen++
	s.jobs = append(s.jobs, j)
	s.pending = append(s.pending, j)
	s.queueBlocked = false // a new job may fit holes the rest cannot
	return j.ID, nil
}

// Cancel removes a pending job or kills a running one. Only the owner
// or root may cancel — and under PrivateData other users cannot even
// name foreign job IDs meaningfully.
func (s *Scheduler) Cancel(actor ids.Credential, jobID int) error {
	j, err := s.lookup(jobID)
	if err != nil {
		return err
	}
	if !actor.IsRoot() && actor.UID != j.User {
		return fmt.Errorf("%w: job %d", ErrNotOwner, jobID)
	}
	switch j.State {
	case Pending:
		j.State = Cancelled
		j.End = s.now
		s.gen++
		i, _ := slices.BinarySearchFunc(s.pending, j.ID, func(p *Job, id int) int { return cmp.Compare(p.ID, id) })
		s.pending = slices.Delete(s.pending, i, i+1)
		s.records = append(s.records, j)
	case Running:
		s.gen++
		s.finish(j, Cancelled)
	}
	return nil
}

// lookup returns the job with the given ID from the job table.
func (s *Scheduler) lookup(id int) (*Job, error) {
	if id < 1 || id > len(s.jobs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return s.jobs[id-1], nil
}

// Step advances logical time by one tick: finish jobs whose time is
// up, apply memory usage and OOM faults, then schedule the queue.
// Returns the number of jobs started this tick.
func (s *Scheduler) Step() int {
	s.now++
	s.stepCount++
	s.gen++
	// Account utilization before finishing, i.e. usage during this
	// tick. Busy counts the cores jobs *requested*, not the cores a
	// placement occupies — exclusive allocations waste the node
	// remainder and that waste must show up as idle. Both sides are
	// running counters: nothing is summed per tick.
	s.totalCoreTicks += s.computeCores
	s.busyCoreTicks += s.busyCores
	// 1. Completions: the jobs due now, in ID order, off the wheel's
	// bucket for this tick; nothing else in the running set is touched.
	s.due = s.calendar.popDue(s.now, s.due[:0])
	for _, j := range s.due {
		s.finish(j, Completed)
	}
	// 2a. Externally crashed nodes (hardware failure injected by a
	// test or operator): every job on them fails. The same walk
	// tracks down/up transitions so an operator Restore re-opens the
	// scheduling gate.
	for i, ns := range s.nodes {
		down := ns.node.Down()
		if down != s.lastDown[i] {
			s.lastDown[i] = down
			if !down {
				s.queueBlocked = false // restored capacity
			}
		}
		if down && len(ns.jobs) > 0 {
			for _, j := range s.jobsByID(ns) {
				s.finish(j, Failed)
			}
		}
	}
	// 2b. OOM fault injection: jobs that exceed their request blow up
	// the node, killing every job on it. Armed state is maintained at
	// placement time, so the node walk runs only when a crash is due.
	if s.armedNodes > 0 {
		for _, ns := range s.nodes {
			if ns.oomArmed() {
				s.crashNode(ns)
			}
		}
	}
	// 3. Scheduling pass (first-fit over submit order = FIFO with
	// backfill holes). Skipped outright when nothing changed since
	// the last failed pass (queueBlocked) or the cluster has no free
	// core anywhere — the full-cluster steady state of a drain costs
	// O(1). The pass compacts the pending slice in place, keeping the
	// jobs tryStart rejects in their order.
	//
	// The pass also ends as soon as a start leaves no free core. Every
	// job asks for at least one core (Submit), and under every policy
	// probe's bound is at most freeCores (emptyCores and
	// emptyCores+userFree[u] count free cores only), so each job left
	// would fail probe with no side effect: the unscanned tail moves
	// down behind the rejected prefix unprobed.
	started := 0
	if len(s.pending) > 0 && !s.queueBlocked && s.defaultScope.freeCores > 0 {
		kept := s.pending[:0]
		for i, j := range s.pending {
			if !s.tryStart(j) {
				kept = append(kept, j)
				continue
			}
			started++
			if s.defaultScope.freeCores == 0 {
				kept = append(kept, s.pending[i+1:]...)
				break
			}
		}
		clear(s.pending[len(kept):])
		s.pending = kept
	}
	// Capacity only shrinks during a pass, so jobs it left pending
	// stay unplaceable until a release/submit/restore clears this.
	s.queueBlocked = true
	return started
}

// jobsByID copies the node's jobs into the crash scratch, sorted by
// ID: a crash blames, fails and records them in that order, so the
// unordered job set costs a sort only when a node crashes.
func (s *Scheduler) jobsByID(ns *nodeState) []*Job {
	s.byID = append(s.byID[:0], ns.jobs...)
	slices.SortFunc(s.byID, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
	return s.byID
}

// crashNode fails every job on the node and marks the crash. Jobs of
// users other than the at-fault user count as cofailures (blast
// radius, experiment E4). The at-fault user is the lowest-ID job
// exceeding its request, so repeated runs blame identically even
// when several users misbehave on one node.
func (s *Scheduler) crashNode(ns *nodeState) {
	s.crashes++
	var atFault ids.UID = ids.NoUID
	jobs := s.jobsByID(ns)
	for _, j := range jobs {
		if j.Spec.ActualMemB > j.Spec.MemB {
			atFault = j.User
			break
		}
	}
	for _, j := range jobs {
		if j.User != atFault && atFault != ids.NoUID {
			s.cofailures++
		}
		s.finish(j, Failed)
	}
	ns.node.Crash()
	ns.node.Restore()
}

// finish releases a job's resources, runs epilogs, records
// accounting. Nodes are walked in j.Nodes order (sorted at start), so
// epilog hooks and resource releases happen in a stable node order.
func (s *Scheduler) finish(j *Job, state JobState) {
	if j.State != Running {
		return
	}
	s.calendar.remove(j)
	j.State = state
	j.End = s.now
	s.busyCores -= int64(j.Spec.Cores)
	for k, tk := range j.tasks {
		ns := s.nodes[tk.node]
		s.applyRelease(ns, j, j.Cores[k])
		ns.node.Procs.ExitJob(tk.pid, j.ID)
		for _, h := range s.epilogs {
			_ = h(j, ns.node) // epilog failures are logged, not fatal, in Slurm
		}
	}
	s.queueBlocked = false // released capacity may start pending jobs
	s.records = append(s.records, j)
}

// tryStart attempts to place job j now. A failed attempt — the common
// case while a campaign drains — costs an O(1) probe plus at most one
// allocation-free node scan.
func (s *Scheduler) tryStart(j *Job) bool {
	if !s.fit(j) {
		return false
	}
	j.State = Running
	j.Start = s.now
	n := len(s.scratch.nodes)
	j.Nodes = s.nodeSlab.Take(n)
	j.Cores = s.coreSlab.Take(n)
	j.tasks = s.taskSlab.Take(n)
	rss := effMemB(j)
	for k, ni := range s.scratch.nodes {
		ns := s.nodes[ni]
		cores := s.scratch.cores[k]
		j.Nodes[k], j.Cores[k] = ns.node.Name, cores
		s.applyPlace(ns, j, cores)
		// One task process per node, carrying the command line (the
		// thing hidepid protects).
		j.tasks[k] = task{ns.node.Procs.SpawnJob(j.Cred, j.ID, rss, "slurmstepd", j.Spec.Command), ni}
		for _, h := range s.prologs {
			_ = h(j, ns.node)
		}
	}
	sort.Sort((*byNode)(j))
	s.calendar.push(j)
	s.busyCores += int64(j.Spec.Cores)
	return true
}

// byNode sorts a job's per-node slices together by node name.
type byNode Job

func (b *byNode) Len() int           { return len(b.Nodes) }
func (b *byNode) Less(i, k int) bool { return b.Nodes[i] < b.Nodes[k] }
func (b *byNode) Swap(i, k int) {
	b.Nodes[i], b.Nodes[k] = b.Nodes[k], b.Nodes[i]
	b.Cores[i], b.Cores[k] = b.Cores[k], b.Cores[i]
	b.tasks[i], b.tasks[k] = b.tasks[k], b.tasks[i]
}

// HasJobOn reports whether uid has a running job on the named node —
// the pam_slurm predicate.
func (s *Scheduler) HasJobOn(uid ids.UID, nodeName string) bool {
	ns, ok := s.byName[nodeName]
	if !ok {
		return false
	}
	return ns.userJobs(uid) > 0
}

// Utilization returns busy core-ticks / total core-ticks so far.
func (s *Scheduler) Utilization() float64 {
	if s.totalCoreTicks == 0 {
		return 0
	}
	return float64(s.busyCoreTicks) / float64(s.totalCoreTicks)
}

// Crashes returns (node crashes, cross-user job cofailures).
func (s *Scheduler) Crashes() (int, int) {
	return s.crashes, s.cofailures
}

// PeakUsersPerNode returns the most distinct users any node has
// hosted at once since New or the last Reset — the invariant check of
// experiment E4: under PolicyUserWholeNode it never exceeds 1, i.e.
// perfect user separation on compute nodes.
func (s *Scheduler) PeakUsersPerNode() int {
	return s.peakUsers
}

// Job returns the job by ID as the *scheduler* sees it (no privacy
// filtering — use Squeue for user-facing access).
func (s *Scheduler) Job(id int) (*Job, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.Clone(), nil
}

// Placement returns job id's state and its first node ("" while it
// has none) without copying the job, for a caller that polls a job
// until it places; Job returns the whole job as a copy.
func (s *Scheduler) Placement(id int) (JobState, string, error) {
	j, err := s.lookup(id)
	if err != nil {
		return 0, "", err
	}
	if len(j.Nodes) == 0 {
		return j.State, "", nil
	}
	return j.State, j.Nodes[0], nil
}

// RunAll steps until the queue drains and all jobs finish, up to
// maxTicks. Returns the number of ticks executed (fast-forwarded
// ticks count: logical time advances identically either way).
//
// The drain is event-driven: after each real tick, if the queue is
// provably stuck (every pass leaves it blocked until capacity frees)
// and no OOM is armed, the ticks until the next calendar completion
// contain no events — their only effect is
// utilization accounting, which is applied analytically, and the
// clock jumps straight to the tick containing the next event.
func (s *Scheduler) RunAll(maxTicks int) int {
	ticks := int64(0)
	max := int64(maxTicks)
	for ticks < max {
		s.Step()
		ticks++
		if s.calendar.live == 0 && len(s.pending) == 0 {
			return int(ticks)
		}
		ticks += s.fastForward(max - ticks)
	}
	return maxTicks
}

// fastForward advances over up to budget event-free ticks, returning
// how many were skipped. It refuses to skip whenever the next tick
// could do anything a real Step would: finish a due job, crash an
// armed node, or start a pending job.
func (s *Scheduler) fastForward(budget int64) int64 {
	if budget <= 0 || s.armedNodes > 0 {
		return 0
	}
	if len(s.pending) > 0 && !s.queueBlocked {
		return 0
	}
	skip := budget
	if next, ok := s.calendar.nextDue(s.now); ok {
		// The completion fires in the tick where now reaches next;
		// run that tick for real.
		if d := next - 1 - s.now; d < skip {
			skip = d
		}
	}
	// With nothing running and the queue stuck, no event ever comes:
	// burn the whole budget (the caller's maxTicks cap).
	if skip <= 0 {
		return 0
	}
	s.now += skip
	s.ffTicks += skip
	s.totalCoreTicks += s.computeCores * skip
	s.busyCoreTicks += s.busyCores * skip
	return skip
}

// Stats reports how many real ticks the scheduler has executed
// (Step runs) and how many event-free ticks the analytic
// fast-forward skipped, since construction or the last Reset. Their
// sum is the total logical time advanced; the ratio is the
// event-driven engine's payoff, which is why the observability layer
// exports both.
func (s *Scheduler) Stats() (steps, fastForwarded int64) {
	return s.stepCount, s.ffTicks
}
