package shard

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Supervision defaults. The heartbeat timeout is deliberately lax:
// a slow shard whose journal still grows is making progress and must
// NOT be killed (the slow-shard fault pins this); only a silent one is
// dead.
const (
	DefaultShards           = 2
	DefaultHeartbeatTimeout = 10 * time.Second
	DefaultShardRetries     = 2
)

const (
	// Failed attempt k is retried after min(backoffBase·2^(k-1),
	// backoffMax).
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
	// wakeEvery is the supervision loop's tick: the journals' read
	// cadence, and the resolution of heartbeats, deadlines and backoffs.
	wakeEvery = 25 * time.Millisecond
)

// Options configures Supervise.
type Options struct {
	// Shards is the worker count the campaign is planned across;
	// <= 0 means DefaultShards. Results never depend on it.
	Shards int
	Seed   uint64
	// Workers is each shard attempt's fleet worker-goroutine count
	// (0 = GOMAXPROCS) — wall-clock only, like everywhere else.
	Workers int
	// Dir holds the campaign's working set: campaign.json and
	// chaos.json for exec workers, and the per-shard checkpoint
	// journals. Required; the journals ARE the crash-recovery state,
	// so the caller chooses where they live.
	Dir string
	// Launcher runs shard attempts; nil means InProc{}.
	Launcher Launcher
	// Faults is the chaos plan, forwarded to every shard attempt.
	// Campaign-level faults fire in whichever shard owns the target
	// trial; shard-level faults arm against each worker's own index.
	Faults *fleet.FaultPlan
	// CheckpointEvery is the shard workers' append cadence; <= 0 means
	// 1 (every trial) — a supervised shard's journal is its recovery
	// state and its heartbeat, so the default loses nothing on a kill
	// and shows progress after every trial.
	CheckpointEvery int
	// HeartbeatTimeout: a shard whose journal does not grow for this
	// long is declared wedged, killed, and retried. It must cover one
	// CheckpointEvery batch of trials. 0 means DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// AttemptDeadline bounds one attempt's wall clock; 0 = unbounded.
	AttemptDeadline time.Duration
	// MaxShardRetries is how many times a dead/wedged shard is
	// relaunched (resuming from its journal) before it degrades to
	// counted failures. 0 means DefaultShardRetries; negative disables
	// retries.
	MaxShardRetries int
	// Drain, when closed, gracefully stops the campaign: running
	// attempts are drained (they checkpoint), no retries launch, and
	// Supervise returns *DrainedError.
	Drain <-chan struct{}
	// OnScenario streams each scenario's merged result as soon as its
	// replications are all covered, in ascending scenario order —
	// trial-index order, preserved. Called from Supervise's goroutine.
	OnScenario func(index int, res *fleet.ScenarioResult)
	// Status, when non-nil, is kept current with per-shard progress
	// for external observers (the fleetd status endpoint).
	Status *Status
	// Metrics, when non-nil, receives the shard_* supervision counters
	// and — for in-process launchers — each attempt's fleet_* trial
	// counters. Observability only; results never depend on it.
	Metrics *obs.Registry
	// Logf receives supervision events (launches, kills, retries);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Status is a concurrently-readable snapshot of per-shard progress.
type Status struct {
	mu     sync.Mutex
	shards []ShardStatus
}

// ShardStatus is one shard's externally visible state.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	State     string `json:"state"` // pending | running | backoff | done | degraded | drained
	Attempt   int    `json:"attempt"`
	Completed int    `json:"completed"`
}

func (st *Status) init(n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.shards = make([]ShardStatus, n)
	for i := range st.shards {
		st.shards[i] = ShardStatus{Shard: i, State: "pending"}
	}
}

func (st *Status) set(i int, f func(*ShardStatus)) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if i < len(st.shards) {
		f(&st.shards[i])
	}
}

// Snapshot returns a copy of the per-shard states.
func (st *Status) Snapshot() []ShardStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]ShardStatus(nil), st.shards...)
}

// DrainedError reports a campaign stopped by Options.Drain: every
// running shard checkpointed and stopped, and the journals in Dir can
// seed a future resubmission.
type DrainedError struct {
	Dir string
}

func (e *DrainedError) Error() string {
	return fmt.Sprintf("shard: campaign drained before completion (shard journals preserved in %s)", e.Dir)
}

// shardState is one shard's supervision state. Only run's goroutine
// touches it.
type shardState struct {
	state   string    // as in ShardStatus.State; "" until the first launch
	attempt int       // attempts launched so far
	att     Attempt   // the live attempt; nil between attempts
	start   time.Time // when att launched
	grew    time.Time // the journal's last growth; the launch instant counts
	killed  error     // why the supervisor killed att, if it did
	retryAt time.Time // when a shard in backoff may launch again
	fails   []fleet.TrialFailure
	tail    journalTail
}

// settled reports whether the shard has reached a terminal state.
func (sh *shardState) settled() bool {
	return sh.state == "done" || sh.state == "degraded" || sh.state == "drained"
}

// supervisor carries Supervise's per-campaign state.
type supervisor struct {
	c        fleet.Campaign
	opt      Options
	plan     []Assignment
	m        shardMetrics
	shards   []shardState
	draining bool
	// exited receives a shard's index when its attempt ends. A shard
	// has at most one live attempt, so a buffer of one per shard means
	// an exit forwarder never blocks.
	exited chan int

	campPath   string
	faultsPath string
}

// Supervise runs the campaign as opt.Shards supervised shard workers
// and returns the merged result.
//
// One goroutine supervises every shard. It launches the attempts, then
// wakes on an attempt's exit, on Drain and every 25 ms. On each wake it
// reads what every live journal gained, kills an attempt whose journal
// has been silent past HeartbeatTimeout or that is past
// AttemptDeadline, relaunches shards whose backoff has run out, and
// streams the scenarios that are now covered.
//
// Failure model: a shard whose attempt dies (process death, soft
// kill), wedges (its journal stops growing), or overruns its deadline
// is relaunched with exponential backoff, resuming from its own
// checkpoint journal — completed trials are never recomputed, and
// because restored aggregates re-enter the reduction at their own
// trial indices the merged bytes are unchanged by any number of
// retries. A shard that exhausts its retry budget degrades: its
// still-missing trials merge as counted per-scenario failures and
// every sibling scenario's statistics are untouched. Only Drain stops
// the campaign early.
func Supervise(c fleet.Campaign, opt Options) (*fleet.CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("shard: Options.Dir is required (shard journals live there)")
	}
	if opt.Shards <= 0 {
		opt.Shards = DefaultShards
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 1
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if opt.MaxShardRetries == 0 {
		opt.MaxShardRetries = DefaultShardRetries
	}
	if opt.Launcher == nil {
		opt.Launcher = InProc{}
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if err := checkFaults(opt.Faults, c, opt.Shards); err != nil {
		return nil, err
	}
	plan, err := Plan(c, opt.Shards)
	if err != nil {
		return nil, err
	}
	s := &supervisor{c: c, opt: opt, plan: plan, m: newShardMetrics(opt.Metrics), shards: make([]shardState, len(plan))}
	if opt.Status != nil {
		opt.Status.init(opt.Shards)
	}
	if err := s.writeInputs(); err != nil {
		return nil, err
	}
	return s.run()
}

// checkFaults rejects a fault plan that does not fit the campaign or
// targets a shard past the count it runs under.
func checkFaults(p *fleet.FaultPlan, c fleet.Campaign, shards int) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(c); err != nil {
		return err
	}
	for _, sf := range p.Shards {
		if sf.Shard >= shards {
			return fmt.Errorf("shard: fault targets shard %d but the campaign runs %d shards", sf.Shard, shards)
		}
	}
	return nil
}

// writeInputs persists the campaign (and fault plan) to Dir so exec
// workers load byte-identical definitions — the campaign hash in
// every journal then matches by construction.
func (s *supervisor) writeInputs() error {
	data, err := fleet.EncodeCampaign(s.c)
	if err != nil {
		return err
	}
	s.campPath = filepath.Join(s.opt.Dir, "campaign.json")
	if err := fleet.WriteFileAtomic(s.campPath, data); err != nil {
		return err
	}
	if s.opt.Faults != nil {
		data, err := json.MarshalIndent(s.opt.Faults, "", "  ")
		if err != nil {
			return err
		}
		s.faultsPath = filepath.Join(s.opt.Dir, "chaos.json")
		if err := fleet.WriteFileAtomic(s.faultsPath, append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

func (s *supervisor) journalPath(i int) string {
	return filepath.Join(s.opt.Dir, fmt.Sprintf("shard-%d.ck.json", i))
}

// run is the supervision loop. It returns once every shard is done,
// degraded or drained; by then every attempt's exit has been received,
// so no goroutine outlives it.
func (s *supervisor) run() (*fleet.CampaignResult, error) {
	s.exited = make(chan int, len(s.shards))
	drain := s.opt.Drain
	select {
	case <-drain: // a drain that fired before launch launches nothing
		drain = nil
		s.beginDrain()
	default:
	}
	tick := time.NewTicker(wakeEvery)
	defer tick.Stop()
	merged := make([]*fleet.ScenarioResult, len(s.c.Scenarios))
	next := 0
	changed := false
	for {
		if s.poll() || changed {
			next, _ = s.advance(merged, next)
			changed = false
		}
		if s.settled() {
			break
		}
		select {
		case i := <-s.exited:
			s.exit(i)
			changed = true
		case <-drain:
			drain = nil
			s.beginDrain()
		case <-tick.C:
		}
	}

	for i := range s.shards {
		if s.shards[i].state == "drained" {
			return nil, &DrainedError{Dir: s.opt.Dir}
		}
	}
	if next, err := s.advance(merged, next); err != nil {
		return nil, fmt.Errorf("shard: scenario %q could not be merged from the shard journals: %w", s.c.Scenarios[next].Name, err)
	}
	res := &fleet.CampaignResult{Campaign: s.c.Name, Seed: s.opt.Seed, Scenarios: merged}
	res.TrialFailures = gatherFailures(s.c, s.shards)
	return res, nil
}

// MergeCheckpoints is fleet.MergeCheckpoints, for callers that reach
// the reduction through this package.
var MergeCheckpoints = fleet.MergeCheckpoints

// settled reports whether every shard has reached a terminal state.
func (s *supervisor) settled() bool {
	for i := range s.shards {
		if !s.shards[i].settled() {
			return false
		}
	}
	return true
}

// setState records shard i's state, for the loop and for Status.
func (s *supervisor) setState(i int, state string) {
	sh := &s.shards[i]
	sh.state = state
	s.opt.Status.set(i, func(st *ShardStatus) { st.State, st.Attempt = state, sh.attempt })
}

// poll reads what every live journal gained, stamps the growth, kills
// the attempts that are wedged or past their deadline, and launches
// every shard that is due; true when a journal grew.
func (s *supervisor) poll() bool {
	now := time.Now()
	grew := false
	for i := range s.shards {
		sh := &s.shards[i]
		switch {
		case sh.att != nil:
			if s.readJournal(i) {
				sh.grew, grew = now, true
			}
			s.watch(i, now)
		case !sh.settled() && !now.Before(sh.retryAt):
			s.launch(i)
		}
	}
	return grew
}

// watch kills shard i's attempt when its journal has been silent for
// HeartbeatTimeout or it has overrun AttemptDeadline. A slow attempt
// whose journal still grows is left alone, and so is one draining.
func (s *supervisor) watch(i int, now time.Time) {
	sh := &s.shards[i]
	if sh.killed != nil || s.draining {
		return
	}
	switch stale := now.Sub(sh.grew); {
	case stale > s.opt.HeartbeatTimeout:
		s.opt.Logf("shard %d: journal silent for %v; killing", i, stale.Round(time.Millisecond))
		s.m.heartbeatStalls.Inc()
		sh.killed = fmt.Errorf("journal stalled for %v (wedged)", stale.Round(time.Millisecond))
	case s.opt.AttemptDeadline > 0 && now.Sub(sh.start) > s.opt.AttemptDeadline:
		s.opt.Logf("shard %d: attempt deadline %v exceeded; killing", i, s.opt.AttemptDeadline)
		s.m.deadlineKills.Inc()
		sh.killed = fmt.Errorf("attempt deadline %v exceeded", s.opt.AttemptDeadline)
	default:
		return
	}
	sh.att.Kill()
}

// launch starts shard i's next attempt, resuming from its journal.
func (s *supervisor) launch(i int) {
	sh := &s.shards[i]
	sh.attempt++
	s.setState(i, "running")
	// On attempt 1 this picks up a journal already in Dir. The tail's
	// checkpoint is the attempt's resume state, and it is never mutated
	// again: the attempt replaces the journal, a new inode, so the tail
	// starts a fresh checkpoint.
	s.readJournal(i)
	resume := sh.tail.ck
	if resume != nil {
		s.opt.Logf("shard %d attempt %d: resuming from journal (%d trials done)", i, sh.attempt, resume.Completed())
	}
	s.m.attempts.Inc()
	att, err := s.opt.Launcher.Launch(AttemptSpec{
		Campaign:        s.c,
		CampaignPath:    s.campPath,
		Seed:            s.opt.Seed,
		Workers:         s.opt.Workers,
		Shard:           s.plan[i],
		Shards:          len(s.plan),
		Attempt:         sh.attempt,
		CheckpointPath:  s.journalPath(i),
		CheckpointEvery: s.opt.CheckpointEvery,
		Resume:          resume,
		Faults:          s.opt.Faults,
		FaultsPath:      s.faultsPath,
		FailuresPath:    filepath.Join(s.opt.Dir, fmt.Sprintf("shard-%d.failures.json", i)),
		Metrics:         s.opt.Metrics,
	})
	if err != nil {
		s.fail(i, fmt.Errorf("launch: %w", err))
		return
	}
	now := time.Now()
	sh.att, sh.start, sh.grew, sh.killed = att, now, now, nil
	go func() { <-att.Done(); s.exited <- i }()
}

// exit settles shard i's attempt once it has ended. A clean exit counts
// as success only if the journal covers the shard's ranges.
func (s *supervisor) exit(i int) {
	sh := &s.shards[i]
	att := sh.att
	sh.att = nil
	sh.fails = append(sh.fails, att.Failures()...)
	s.readJournal(i) // the attempt's last lines
	err := sh.killed
	if err == nil {
		err = att.Err()
	}
	switch {
	case s.draining:
		s.setState(i, "drained")
	case err != nil:
		s.fail(i, err)
	case !s.covers(i):
		// A clean exit without full coverage is a worker bug, but the
		// supervisor treats it like any other failure: retry.
		s.fail(i, fmt.Errorf("exited cleanly but the journal does not cover the shard's ranges"))
	default:
		s.setState(i, "done")
	}
}

// fail schedules shard i's next attempt after its backoff or, once the
// retry budget is spent, degrades the shard to counted failures: the
// sibling scenarios and every trial it DID checkpoint are kept, and
// only its still-missing trials become failures.
func (s *supervisor) fail(i int, err error) {
	sh := &s.shards[i]
	s.opt.Logf("shard %d attempt %d failed: %v", i, sh.attempt, err)
	if sh.attempt <= s.opt.MaxShardRetries {
		d := backoffBase << uint(sh.attempt-1)
		if d > backoffMax || d <= 0 {
			d = backoffMax
		}
		sh.retryAt = time.Now().Add(d)
		s.m.backoffs.Inc()
		s.setState(i, "backoff")
		return
	}
	s.opt.Logf("shard %d: retry budget exhausted; degrading missing trials to counted failures", i)
	s.m.degraded.Inc()
	s.setState(i, "degraded")
}

// beginDrain drains every live attempt and marks every shard not
// running drained: no attempt launches after a drain.
func (s *supervisor) beginDrain() {
	s.draining = true
	for i := range s.shards {
		sh := &s.shards[i]
		switch {
		case sh.att != nil:
			s.opt.Logf("shard %d: draining", i)
			sh.att.Drain()
		case !sh.settled():
			s.setState(i, "drained")
		}
	}
}

// advance merges scenarios [next, …) whose replications are fully
// covered by the shards' journals, emitting each exactly once, in
// ascending order, and returns the first unmerged scenario with the
// reason it could not be merged (nil once all are). Degraded
// gap-filling is only allowed once every shard is settled: until then
// a missing replication means "not yet", not "never".
func (s *supervisor) advance(merged []*fleet.ScenarioResult, next int) (int, error) {
	cks := make([]*fleet.Checkpoint, len(s.shards))
	degrade := false
	for i := range s.shards {
		cks[i] = s.shards[i].tail.ck
		degrade = degrade || s.shards[i].state == "degraded"
	}
	degrade = degrade && s.settled()
	for ; next < len(s.c.Scenarios); next++ {
		agg, err := fleet.MergeScenario(s.c, cks, next, degrade)
		if err != nil {
			return next, err // incomplete coverage: try again on the next wake
		}
		merged[next] = agg
		if s.opt.OnScenario != nil {
			s.opt.OnScenario(next, agg)
		}
	}
	return next, nil
}

// covers reports whether shard i's journal holds every trial in its
// assignment.
func (s *supervisor) covers(i int) bool {
	ck := s.shards[i].tail.ck
	if ck == nil {
		return false
	}
	for si, r := range s.plan[i].Ranges {
		for rep := r.Lo; rep < r.Hi; rep++ {
			if ck.Trial(si, rep) == nil {
				return false
			}
		}
	}
	return true
}

// gatherFailures flattens the shards' failure ledgers back into the
// campaign's canonical trial-index order (then attempt order), so the
// merged ledger is identical to a 1-process run's ordering.
func gatherFailures(c fleet.Campaign, shards []shardState) []fleet.TrialFailure {
	idx := make(map[string]int, len(c.Scenarios))
	for i, sc := range c.Scenarios {
		idx[sc.Name] = i
	}
	var all []fleet.TrialFailure
	for i := range shards {
		all = append(all, shards[i].fails...)
	}
	sort.SliceStable(all, func(a, b int) bool {
		if idx[all[a].Scenario] != idx[all[b].Scenario] {
			return idx[all[a].Scenario] < idx[all[b].Scenario]
		}
		if all[a].Replication != all[b].Replication {
			return all[a].Replication < all[b].Replication
		}
		return all[a].Attempt < all[b].Attempt
	})
	return all
}
