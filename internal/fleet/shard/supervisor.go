package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Supervision defaults. The heartbeat timeout is deliberately lax:
// a slow shard that still beats is making progress and must NOT be
// killed (the slow-shard fault pins this); only a silent one is dead.
const (
	DefaultShards           = 2
	DefaultHeartbeatTimeout = 10 * time.Second
	DefaultShardRetries     = 2
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffMax       = 5 * time.Second
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
	// chaos.json for exec workers, and per-shard sidecars and
	// heartbeat files. Required; the sidecars ARE the crash-recovery
	// state, so the caller chooses where they live.
	Dir string
	// Launcher runs shard attempts; nil means InProc{}.
	Launcher Launcher
	// Faults is the chaos plan, forwarded to every shard attempt.
	// Campaign-level faults fire in whichever shard owns the target
	// trial; shard-level faults arm against each worker's own index.
	Faults *fleet.FaultPlan
	// CheckpointEvery is the shard workers' periodic-write cadence;
	// <= 0 means 1 (every trial) — a supervised shard's sidecar is its
	// recovery state, so the default trades write traffic for losing
	// at most nothing on a kill.
	CheckpointEvery int
	// HeartbeatTimeout: a shard whose heartbeat does not advance for
	// this long is declared wedged, killed, and retried. 0 means
	// DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// AttemptDeadline bounds one attempt's wall clock; 0 = unbounded.
	AttemptDeadline time.Duration
	// MaxShardRetries is how many times a dead/wedged shard is
	// relaunched (resuming from its sidecar) before it degrades to
	// counted failures. 0 means DefaultShardRetries; negative disables
	// retries.
	MaxShardRetries int
	// BackoffBase/BackoffMax shape the exponential retry backoff:
	// attempt k sleeps min(BackoffBase·2^(k-1), BackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
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
// running shard checkpointed and stopped, and the sidecars in Dir can
// seed a future resubmission.
type DrainedError struct {
	Dir string
}

func (e *DrainedError) Error() string {
	return fmt.Sprintf("shard: campaign drained before completion (shard sidecars preserved in %s)", e.Dir)
}

// errDrained flows from the monitor to the shard loop; it never
// escapes Supervise (it becomes *DrainedError).
var errDrained = errors.New("drained")

// shardOutcome is one shard's terminal state.
type shardOutcome struct {
	ck       *fleet.Checkpoint // final sidecar; best-effort (possibly nil) when degraded/drained
	degraded bool
	drained  bool
	fails    []fleet.TrialFailure
}

// supervisor carries Supervise's per-campaign state.
type supervisor struct {
	c     fleet.Campaign
	opt   Options
	plan  []Assignment
	drain <-chan struct{}
	m     shardMetrics

	campPath   string
	faultsPath string
}

// Supervise runs the campaign as opt.Shards supervised shard workers
// and returns the merged result.
//
// Failure model: a shard whose attempt dies (process death, soft
// kill), wedges (heartbeat stops advancing), or overruns its deadline
// is relaunched with exponential backoff, resuming from its own
// checkpoint sidecar — completed trials are never recomputed, and
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
		return nil, fmt.Errorf("shard: Options.Dir is required (shard sidecars and heartbeats live there)")
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
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = DefaultBackoffBase
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = DefaultBackoffMax
	}
	if opt.Launcher == nil {
		opt.Launcher = InProc{}
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.Faults != nil {
		if err := opt.Faults.Validate(c); err != nil {
			return nil, err
		}
		for _, sf := range opt.Faults.Shards {
			if sf.Shard >= opt.Shards {
				return nil, fmt.Errorf("shard: fault targets shard %d but the campaign runs %d shards", sf.Shard, opt.Shards)
			}
		}
	}
	plan, err := Plan(c, opt.Shards)
	if err != nil {
		return nil, err
	}
	s := &supervisor{c: c, opt: opt, plan: plan, drain: opt.Drain, m: newShardMetrics(opt.Metrics)}
	if s.drain == nil {
		s.drain = make(chan struct{}) // never closes
	}
	if opt.Status != nil {
		opt.Status.init(opt.Shards)
	}
	if err := s.writeInputs(); err != nil {
		return nil, err
	}
	return s.run()
}

// writeInputs persists the campaign (and fault plan) to Dir so exec
// workers load byte-identical definitions — the campaign hash in
// every sidecar then matches by construction.
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

func (s *supervisor) sidecarPath(i int) string {
	return filepath.Join(s.opt.Dir, fmt.Sprintf("shard-%d.ck.json", i))
}

// run launches the shard loops and streams merged scenarios as
// coverage completes.
func (s *supervisor) run() (*fleet.CampaignResult, error) {
	type shardDone struct {
		i   int
		out shardOutcome
	}
	results := make(chan shardDone, len(s.plan))
	for i := range s.plan {
		go func(i int) { results <- shardDone{i, s.superviseShard(i)} }(i)
	}

	outcomes := make([]*shardOutcome, len(s.plan))
	merged := make([]*fleet.ScenarioResult, len(s.c.Scenarios))
	next := 0
	pending := len(s.plan)
	// The scanner wakes on every shard completion and on a slow tick:
	// periodic sidecar writes let a scenario's coverage complete long
	// before any shard exits, and the tick picks that up.
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for pending > 0 {
		select {
		case r := <-results:
			outcomes[r.i] = &r.out
			pending--
		case <-tick.C:
		}
		next, _ = s.advance(outcomes, merged, next, false)
	}

	for _, out := range outcomes {
		if out.drained {
			return nil, &DrainedError{Dir: s.opt.Dir}
		}
	}
	if next, err := s.advance(outcomes, merged, next, true); err != nil {
		return nil, fmt.Errorf("shard: scenario %q could not be merged from the shard sidecars: %w", s.c.Scenarios[next].Name, err)
	}

	res := &fleet.CampaignResult{Campaign: s.c.Name, Seed: s.opt.Seed, Scenarios: merged}
	res.TrialFailures = gatherFailures(s.c, outcomes)
	return res, nil
}

// MergeCheckpoints is fleet.MergeCheckpoints, for callers that reach
// the reduction through this package.
var MergeCheckpoints = fleet.MergeCheckpoints

// advance merges scenarios [next, …) whose replications are fully
// covered — by terminal shards' final sidecars and live shards'
// periodic ones — emitting each exactly once, in ascending order, and
// returns the first unmerged scenario with the reason it could not be
// merged (nil once all are). Degraded gap-filling is only allowed once
// every shard is terminal (final=true, or all outcomes present): until
// then a missing replication means "not yet", not "never".
func (s *supervisor) advance(outcomes []*shardOutcome, merged []*fleet.ScenarioResult, next int, final bool) (int, error) {
	allDone := true
	anyDegraded := false
	cks := make([]*fleet.Checkpoint, 0, len(s.plan))
	for i, out := range outcomes {
		if out == nil {
			allDone = false
			if ck := s.loadSidecar(i); ck != nil {
				cks = append(cks, ck)
			}
			continue
		}
		anyDegraded = anyDegraded || out.degraded
		if out.ck != nil {
			cks = append(cks, out.ck)
		}
	}
	degrade := (final || allDone) && anyDegraded
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

// superviseShard is one shard's attempt loop: launch, monitor, and on
// failure resume from the sidecar with exponential backoff until the
// retry budget is spent.
func (s *supervisor) superviseShard(i int) shardOutcome {
	maxAttempts := s.opt.MaxShardRetries + 1
	switch {
	case s.opt.MaxShardRetries == 0:
		maxAttempts = DefaultShardRetries + 1
	case s.opt.MaxShardRetries < 0:
		maxAttempts = 1
	}
	var fails []fleet.TrialFailure
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		select {
		case <-s.drain:
			s.opt.Status.set(i, func(st *ShardStatus) { st.State = "drained" })
			return shardOutcome{ck: s.loadSidecar(i), drained: true, fails: fails}
		default:
		}
		s.opt.Status.set(i, func(st *ShardStatus) { st.State, st.Attempt = "running", attempt })
		resume := s.loadSidecar(i)
		if resume != nil {
			s.opt.Logf("shard %d attempt %d: resuming from sidecar (%d trials done)", i, attempt, resume.Completed)
		}
		s.m.attempts.Inc()
		att, err := s.opt.Launcher.Launch(AttemptSpec{
			Campaign:        s.c,
			CampaignPath:    s.campPath,
			Seed:            s.opt.Seed,
			Workers:         s.opt.Workers,
			Shard:           s.plan[i],
			Shards:          len(s.plan),
			Attempt:         attempt,
			CheckpointPath:  s.sidecarPath(i),
			HeartbeatPath:   filepath.Join(s.opt.Dir, fmt.Sprintf("shard-%d.hb.json", i)),
			CheckpointEvery: s.opt.CheckpointEvery,
			Resume:          resume,
			Faults:          s.opt.Faults,
			FaultsPath:      s.faultsPath,
			FailuresPath:    filepath.Join(s.opt.Dir, fmt.Sprintf("shard-%d.failures.json", i)),
			Metrics:         s.opt.Metrics,
		})
		var attErr error
		if err != nil {
			attErr = fmt.Errorf("launch: %w", err)
		} else {
			attErr = s.monitor(i, att)
			fails = append(fails, att.Failures()...)
			if errors.Is(attErr, errDrained) {
				s.opt.Status.set(i, func(st *ShardStatus) { st.State = "drained" })
				return shardOutcome{ck: s.loadSidecar(i), drained: true, fails: fails}
			}
		}
		if attErr == nil {
			ck := s.loadSidecar(i)
			if ck != nil && s.covers(ck, i) {
				s.opt.Status.set(i, func(st *ShardStatus) { st.State, st.Completed = "done", ck.Completed })
				return shardOutcome{ck: ck, fails: fails}
			}
			// A clean exit without full coverage is a worker bug, but
			// the supervisor treats it like any other failure: retry.
			attErr = fmt.Errorf("exited cleanly but the sidecar does not cover the shard's ranges")
		}
		s.opt.Logf("shard %d attempt %d failed: %v", i, attempt, attErr)
		if attempt < maxAttempts {
			s.opt.Status.set(i, func(st *ShardStatus) { st.State = "backoff" })
			s.m.backoffs.Inc()
			if !s.backoff(attempt) {
				s.opt.Status.set(i, func(st *ShardStatus) { st.State = "drained" })
				return shardOutcome{ck: s.loadSidecar(i), drained: true, fails: fails}
			}
		}
	}
	// Retry budget spent: degrade to counted failures. The sibling
	// scenarios and every trial this shard DID checkpoint are kept —
	// only the still-missing trials become failures.
	s.opt.Logf("shard %d: retry budget exhausted; degrading missing trials to counted failures", i)
	s.m.degraded.Inc()
	s.opt.Status.set(i, func(st *ShardStatus) { st.State = "degraded" })
	return shardOutcome{ck: s.loadSidecar(i), degraded: true, fails: fails}
}

// monitor watches one attempt: completion, heartbeat staleness,
// deadline, drain. On staleness or deadline the attempt is killed and
// the error reported for retry.
func (s *supervisor) monitor(i int, att Attempt) error {
	start := time.Now()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-att.Done():
			return att.Err()
		case <-s.drain:
			s.opt.Logf("shard %d: draining", i)
			att.Drain()
			<-att.Done()
			return errDrained
		case <-tick.C:
			completed, last := att.Heartbeat()
			s.opt.Status.set(i, func(st *ShardStatus) { st.Completed = completed })
			if stale := time.Since(last); stale > s.opt.HeartbeatTimeout {
				s.opt.Logf("shard %d: no heartbeat for %v; killing", i, stale.Round(time.Millisecond))
				s.m.heartbeatStalls.Inc()
				att.Kill()
				<-att.Done()
				return fmt.Errorf("heartbeat stalled for %v (wedged)", stale.Round(time.Millisecond))
			}
			if s.opt.AttemptDeadline > 0 && time.Since(start) > s.opt.AttemptDeadline {
				s.opt.Logf("shard %d: attempt deadline %v exceeded; killing", i, s.opt.AttemptDeadline)
				s.m.deadlineKills.Inc()
				att.Kill()
				<-att.Done()
				return fmt.Errorf("attempt deadline %v exceeded", s.opt.AttemptDeadline)
			}
		}
	}
}

// backoff sleeps min(base·2^(attempt-1), max); false means the drain
// fired instead.
func (s *supervisor) backoff(attempt int) bool {
	d := s.opt.BackoffBase << uint(attempt-1)
	if d > s.opt.BackoffMax || d <= 0 {
		d = s.opt.BackoffMax
	}
	select {
	case <-time.After(d):
		return true
	case <-s.drain:
		return false
	}
}

// loadSidecar reads shard i's checkpoint, returning nil for a missing
// or invalid file — "nothing to resume", never fatal: the worst case
// is recomputing trials, which is deterministic anyway.
func (s *supervisor) loadSidecar(i int) *fleet.Checkpoint {
	ck, err := fleet.LoadCheckpoint(s.sidecarPath(i))
	if err != nil {
		if !os.IsNotExist(err) {
			s.opt.Logf("shard %d: ignoring unreadable sidecar: %v", i, err)
		}
		return nil
	}
	if err := ck.ValidateAgainst(s.c, s.opt.Seed); err != nil {
		s.opt.Logf("shard %d: ignoring stale sidecar: %v", i, err)
		return nil
	}
	return ck
}

// covers reports whether the sidecar completed every trial in shard
// i's assignment.
func (s *supervisor) covers(ck *fleet.Checkpoint, i int) bool {
	for si, r := range s.plan[i].Ranges {
		for rep := r.Lo; rep < r.Hi; rep++ {
			if !ck.Scenarios[si].Done.Get(rep) {
				return false
			}
		}
	}
	return true
}

// gatherFailures flattens the shards' failure ledgers back into the
// campaign's canonical trial-index order (then attempt order), so the
// merged ledger is identical to a 1-process run's ordering.
func gatherFailures(c fleet.Campaign, outcomes []*shardOutcome) []fleet.TrialFailure {
	idx := make(map[string]int, len(c.Scenarios))
	for i, sc := range c.Scenarios {
		idx[sc.Name] = i
	}
	var all []fleet.TrialFailure
	for _, out := range outcomes {
		if out != nil {
			all = append(all, out.fails...)
		}
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
