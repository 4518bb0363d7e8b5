package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/simos"
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
// job. The GPU substrate registers both.
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
	index     int // position in s.nodes; partition bitsets key on it
	usedCores int
	usedMem   int64
	usedGPUs  int
	totalGPUs int
	jobs      []*Job      // jobs placed on the node, ID-sorted
	users     []userCount // per-user #jobs on node, unordered
	// scopes are the capacity aggregates this node contributes to
	// (the default scope plus any partitions containing it); nil for
	// non-compute nodes.
	scopes []*capScope
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
				ns.users = append(ns.users[:i], ns.users[i+1:]...)
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
// whole scheduling pass — without walking nodes. Step never scans the
// job table.
type Scheduler struct {
	Cfg Config

	mu         sync.Mutex
	now        int64
	nodes      []*nodeState
	byName     map[string]*nodeState
	partitions map[string]*Partition
	userLimit  int // max active jobs per user; 0 = unlimited
	nextArray  int // next array id (starts at 1)
	// jobs is the job table: every job since New or Reset at index
	// ID-1 (IDs are dense from 1, so the next ID is len(jobs)+1).
	jobs    []*Job
	pending []*Job // the Pending jobs in submit order, i.e. ID order
	// calendar schedules completions by end tick and is the running
	// set: each start pushes one entry, and entries whose job is no
	// longer Running are stale. due is its reusable pop buffer.
	calendar calendar
	due      []*Job
	// activeByUser counts each user's pending+running jobs (the QoS
	// denominator), maintained on enqueue / cancel / finish so the
	// per-submit limit check is O(1).
	activeByUser map[ids.UID]int
	records      []AccountingRecord
	prologs      []Hook
	epilogs      []Hook
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
	// queue gate on restores.
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
	// stepCount/ffTicks feed the observability layer: real ticks
	// executed vs event-free ticks the analytic fast-forward skipped
	// (stepCount + ffTicks = total logical ticks advanced). Plain
	// int64s under s.mu — the per-tick cost is one increment — and
	// cleared by Reset like every other trial-scoped tally.
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
)

// New creates a scheduler over the given nodes. gpusPerNode sets how
// many GPU slots each compute node exposes (0 for CPU-only clusters).
func New(cfg Config, nodes []*simos.Node, gpusPerNode int) *Scheduler {
	s := &Scheduler{
		Cfg:          cfg,
		nextArray:    1,
		byName:       make(map[string]*nodeState),
		activeByUser: make(map[ids.UID]int),
	}
	for _, n := range nodes {
		st := &nodeState{
			node:      n,
			index:     len(s.nodes),
			totalGPUs: gpusPerNode,
		}
		s.nodes = append(s.nodes, st)
		s.byName[n.Name] = st
		if n.Kind == simos.Compute {
			s.computeCores += int64(n.Cores)
			if st.totalGPUs > s.maxNodeGPUs {
				s.maxNodeGPUs = st.totalGPUs
			}
		}
		if cfg.PamSlurm && n.Kind == simos.Compute {
			n.AddPAMHook(s.pamSlurmHook())
		}
	}
	// A job takes at least one core on each node it runs on, so a
	// node's job list never outgrows its core count: carve every list
	// out of one array here instead of growing each on the hot path.
	lists := make([]*Job, s.computeCores)
	for _, ns := range s.nodes {
		if ns.node.Kind == simos.Compute {
			ns.jobs, lists = lists[:0:ns.node.Cores], lists[ns.node.Cores:]
		}
	}
	s.lastDown = make([]bool, len(s.nodes))
	s.defaultScope = s.enrollScope(func(*nodeState) bool { return true })
	return s
}

// Reset rewinds the scheduler to its freshly-constructed state: time
// and job/array numbering restart, the job table, pending queue,
// completion calendar, accounting records, per-user activity counts
// and crash counters empty out, every node's allocations clear, and
// the capacity aggregates are rebuilt over the (again empty) nodes.
// Post-construction configuration is part of the state being rewound:
// partitions registered via AddPartition and the SetUserLimit cap are
// dropped, exactly as if the scheduler had just come out of New.
// Cluster-assembly wiring survives: the pam_slurm node hooks New
// installs and the prolog/epilog hooks registered while the cluster
// was assembled (the GPU manager's) stay in place. The method
// reuses every existing allocation (maps are cleared, slices
// truncated), so a Reset on a drained scheduler allocates nothing
// beyond the rebuilt default scope membership.
// An untouched scheduler (no submit, cancel, step, partition or limit
// change since construction or the last Reset) returns immediately.
func (s *Scheduler) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == 0 {
		return
	}
	s.gen = 0
	s.now = 0
	s.nextArray = 1
	s.userLimit = 0
	clear(s.jobs)
	s.jobs = s.jobs[:0]
	clear(s.pending)
	s.pending = s.pending[:0]
	clear(s.calendar)
	s.calendar = s.calendar[:0]
	s.due = s.due[:0]
	clear(s.activeByUser)
	s.records = s.records[:0]
	s.partitions = nil
	s.queueBlocked = false
	s.armedNodes = 0
	for i := range s.lastDown {
		s.lastDown[i] = false
	}
	s.busyCores, s.busyCoreTicks, s.totalCoreTicks = 0, 0, 0
	s.crashes, s.cofailures = 0, 0
	s.stepCount, s.ffTicks = 0, 0
	for _, ns := range s.nodes {
		ns.usedCores, ns.usedMem, ns.usedGPUs = 0, 0, 0
		clear(ns.jobs)
		ns.jobs = ns.jobs[:0]
		ns.users = ns.users[:0]
		ns.memCommit, ns.overCount = 0, 0
		ns.scopes = ns.scopes[:0]
	}
	s.defaultScope.reset()
	for _, ns := range s.nodes {
		if ns.node.Kind != simos.Compute {
			continue
		}
		s.defaultScope.enroll(ns)
		ns.scopes = append(ns.scopes, s.defaultScope)
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
		return fmt.Errorf("pam_slurm: uid %d has no running job on %s", uid, node.Name)
	}
}

// AddProlog registers a job-start hook.
func (s *Scheduler) AddProlog(h Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prologs = append(s.prologs, h)
}

// AddEpilog registers a job-end hook.
func (s *Scheduler) AddEpilog(h Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epilogs = append(s.epilogs, h)
}

// Now returns the current logical time.
func (s *Scheduler) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Submit enqueues a job for cred. It validates that the request fits
// the cluster at all.
func (s *Scheduler) Submit(cred ids.Credential, spec JobSpec) (*Job, error) {
	if spec.Cores <= 0 || spec.Duration <= 0 {
		return nil, fmt.Errorf("%w: cores=%d duration=%d", ErrBadSpec, spec.Cores, spec.Duration)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validatePartition(spec); err != nil {
		return nil, err
	}
	if err := s.checkUserLimitLocked(cred.UID, 1); err != nil {
		return nil, err
	}
	if int64(spec.Cores) > s.computeCores {
		return nil, fmt.Errorf("%w: %d cores > cluster %d", ErrUnsatisfiable, spec.Cores, s.computeCores)
	}
	// The GPU request is per node, so it must fit a single node.
	if spec.GPUs > s.maxNodeGPUs {
		return nil, fmt.Errorf("%w: %d gpus/node > node max %d", ErrUnsatisfiable, spec.GPUs, s.maxNodeGPUs)
	}
	j := &Job{
		ID:     len(s.jobs) + 1,
		User:   cred.UID,
		Cred:   cred.Clone(),
		Spec:   spec,
		State:  Pending,
		Submit: s.now,
		Tasks:  make(map[string]int),
	}
	s.gen++
	s.jobs = append(s.jobs, j)
	s.pending = append(s.pending, j)
	s.activeByUser[j.User]++
	s.queueBlocked = false // a new job may fit holes the rest cannot
	return j.Clone(), nil
}

// Cancel removes a pending job or kills a running one. Only the owner
// or root may cancel — and under PrivateData other users cannot even
// name foreign job IDs meaningfully.
func (s *Scheduler) Cancel(actor ids.Credential, jobID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		i := searchID(s.pending, j.ID)
		s.pending = slices.Delete(s.pending, i, i+1)
		s.decActiveLocked(j.User)
		s.account(j)
	case Running:
		s.gen++
		s.finish(j, Cancelled)
	}
	return nil
}

// decActiveLocked drops one from a user's pending+running count,
// deleting the entry at zero so the map tracks only active users.
// Caller holds s.mu.
func (s *Scheduler) decActiveLocked(uid ids.UID) {
	if n := s.activeByUser[uid] - 1; n > 0 {
		s.activeByUser[uid] = n
	} else {
		delete(s.activeByUser, uid)
	}
}

// lookup returns the job with the given ID from the job table. Caller
// holds s.mu.
func (s *Scheduler) lookup(id int) (*Job, error) {
	if id < 1 || id > len(s.jobs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return s.jobs[id-1], nil
}

// searchID returns where job id sits, or would be inserted, in the
// ID-sorted js.
func searchID(js []*Job, id int) int {
	i, _ := slices.BinarySearchFunc(js, id, func(j *Job, id int) int { return cmp.Compare(j.ID, id) })
	return i
}

// Step advances logical time by one tick: finish jobs whose time is
// up, apply memory usage and OOM faults, then schedule the queue.
// Returns the number of jobs started this tick.
func (s *Scheduler) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked()
}

// stepLocked is Step with s.mu held, shared with RunAll so the drain
// loop never re-locks to inspect state between ticks.
func (s *Scheduler) stepLocked() int {
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
	// 1. Completions: pop due jobs off the calendar — (end tick, ID)
	// heap order finishes them in ID order, and nothing else in the
	// running set is touched.
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
		for down && len(ns.jobs) > 0 { // finish drops the head, lowest ID first
			s.finish(ns.jobs[0], Failed)
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
	started := 0
	if len(s.pending) > 0 && !s.queueBlocked && s.defaultScope.freeCores > 0 {
		kept := s.pending[:0]
		for _, j := range s.pending {
			if s.tryStart(j) {
				started++
			} else {
				kept = append(kept, j)
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

// crashNode fails every job on the node and marks the crash. Jobs of
// users other than the at-fault user count as cofailures (blast
// radius, experiment E4). The at-fault user is the lowest-ID job
// exceeding its request, so repeated runs blame identically even
// when several users misbehave on one node.
func (s *Scheduler) crashNode(ns *nodeState) {
	s.crashes++
	var atFault ids.UID = ids.NoUID
	for _, j := range ns.jobs {
		if j.Spec.ActualMemB > j.Spec.MemB {
			atFault = j.User
			break
		}
	}
	// finish drops each job from ns.jobs, so take the head (lowest ID)
	// until the node is empty.
	for len(ns.jobs) > 0 {
		j := ns.jobs[0]
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
// Caller holds s.mu.
func (s *Scheduler) finish(j *Job, state JobState) {
	if j.State != Running {
		return
	}
	j.State = state
	j.End = s.now
	s.decActiveLocked(j.User)
	s.busyCores -= int64(j.Spec.Cores)
	for _, nodeName := range j.Nodes {
		ns := s.byName[nodeName]
		s.applyRelease(ns, j, j.Tasks[nodeName])
		ns.node.Procs.KillJob(j.ID)
		for _, h := range s.epilogs {
			_ = h(j, ns.node) // epilog failures are logged, not fatal, in Slurm
		}
	}
	s.queueBlocked = false // released capacity may start pending jobs
	s.account(j)
}

func (s *Scheduler) account(j *Job) {
	var ct int64
	if j.Start > 0 {
		ct = int64(j.Spec.Cores) * (j.End - j.Start)
	}
	s.records = append(s.records, AccountingRecord{
		JobID: j.ID, User: j.User, Name: j.Spec.Name, State: j.State,
		Submit: j.Submit, Start: j.Start, End: j.End,
		CoreTicks: ct, NodeList: append([]string(nil), j.Nodes...),
	})
}

// tryStart attempts to place job j now. A failed attempt — the common
// case while a campaign drains — costs an O(1) probe plus at most one
// allocation-free node scan. Caller holds s.mu.
func (s *Scheduler) tryStart(j *Job) bool {
	if !s.fit(j) {
		return false
	}
	j.State = Running
	j.Start = s.now
	j.Tasks = make(map[string]int, len(s.scratch.nodes))
	j.Nodes = j.Nodes[:0]
	for k, ni := range s.scratch.nodes {
		ns := s.nodes[ni]
		cores := s.scratch.cores[k]
		name := ns.node.Name
		j.Tasks[name] = cores
		j.Nodes = append(j.Nodes, name)
		s.applyPlace(ns, j, cores)
		// Spawn one task process per node, carrying the command line
		// (the thing hidepid protects).
		p := ns.node.Procs.Spawn(j.Cred, 1, "slurmstepd", j.Spec.Command)
		_ = ns.node.Procs.SetJob(p.PID, j.ID)
		rss := j.Spec.MemB
		if j.Spec.ActualMemB > rss {
			rss = j.Spec.ActualMemB
		}
		_ = ns.node.Procs.SetRSS(p.PID, rss)
		for _, h := range s.prologs {
			_ = h(j, ns.node)
		}
	}
	sort.Strings(j.Nodes)
	s.calendar.push(j.Start+j.Spec.Duration, j)
	s.busyCores += int64(j.Spec.Cores)
	return true
}

// HasJobOn reports whether uid has a running job on the named node —
// the pam_slurm predicate.
func (s *Scheduler) HasJobOn(uid ids.UID, nodeName string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.byName[nodeName]
	if !ok {
		return false
	}
	return ns.userJobs(uid) > 0
}

// Utilization returns busy core-ticks / total core-ticks so far.
func (s *Scheduler) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.totalCoreTicks == 0 {
		return 0
	}
	return float64(s.busyCoreTicks) / float64(s.totalCoreTicks)
}

// Crashes returns (node crashes, cross-user job cofailures).
func (s *Scheduler) Crashes() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes, s.cofailures
}

// PendingCount returns the queue length.
func (s *Scheduler) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Job returns the job by ID as the *scheduler* sees it (no privacy
// filtering — use Squeue/JobView for user-facing access).
func (s *Scheduler) Job(id int) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.Clone(), nil
}

// RunAll steps until the queue drains and all jobs finish, up to
// maxTicks. Returns the number of ticks executed (fast-forwarded
// ticks count: logical time advances identically either way).
//
// The drain holds the lock once and is event-driven: after each real
// tick, if the queue is provably stuck (every pass leaves it blocked
// until capacity frees) and no OOM is armed, the ticks until the next
// calendar completion contain no events — their only effect is
// utilization accounting, which is applied analytically, and the
// clock jumps straight to the tick containing the next event.
func (s *Scheduler) RunAll(maxTicks int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ticks := int64(0)
	max := int64(maxTicks)
	for ticks < max {
		s.stepLocked()
		ticks++
		if _, running := s.calendar.nextDue(); !running && len(s.pending) == 0 {
			return int(ticks)
		}
		ticks += s.fastForwardLocked(max - ticks)
	}
	return maxTicks
}

// fastForwardLocked advances over up to budget event-free ticks,
// returning how many were skipped. It refuses to skip whenever the
// next tick could do anything a real Step would: finish a due job,
// crash an armed node, or start a pending job. Caller holds s.mu.
func (s *Scheduler) fastForwardLocked(budget int64) int64 {
	if budget <= 0 || s.armedNodes > 0 {
		return 0
	}
	if len(s.pending) > 0 && !s.queueBlocked {
		return 0
	}
	skip := budget
	if next, ok := s.calendar.nextDue(); ok {
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
// (stepLocked runs) and how many event-free ticks the analytic
// fast-forward skipped, since construction or the last Reset. Their
// sum is the total logical time advanced; the ratio is the
// event-driven engine's payoff, which is why the observability layer
// exports both.
func (s *Scheduler) Stats() (steps, fastForwarded int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepCount, s.ffTicks
}
