package fleet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DefaultCheckpointEvery is the completed-trial cadence of periodic
// checkpoint writes when Options.CheckpointEvery is unset.
const DefaultCheckpointEvery = 8

// DefaultTrialRetries is how many times a panicking trial is re-run
// before it degrades to a counted failure, when Options.MaxTrialRetries
// is unset.
const DefaultTrialRetries = 2

// Options configures a campaign run.
type Options struct {
	// Workers is the shard count; <= 0 means GOMAXPROCS. The worker
	// count affects wall-clock time only, never results: see the
	// determinism contract on Run.
	Workers int
	// Seed is the campaign master seed every trial stream derives
	// from.
	Seed uint64
	// DisablePooling makes every trial construct its own cluster from
	// scratch instead of reusing a per-worker, per-scenario pooled
	// cluster via core.Cluster.Reset. Pooling affects wall-clock time
	// only, never results — output is byte-identical either way (the
	// Reset contract, pinned by test and CI) — so the switch exists
	// for exactly two audiences: the lifecycle benchmark and the
	// determinism gates that prove the equivalence.
	DisablePooling bool
	// CheckpointPath, when non-empty, makes Run persist a resumable
	// Checkpoint sidecar (atomically: temp + rename) every
	// CheckpointEvery completed trials and once more when the run
	// drains — normally, on Interrupt, or before aborting on a trial
	// error — so a SIGKILLed campaign loses at most the trials since
	// the last periodic write.
	CheckpointPath string
	// CheckpointEvery is the completed-trial cadence of periodic
	// checkpoint writes; <= 0 means DefaultCheckpointEvery.
	CheckpointEvery int
	// ResumeFrom restores completed trials from a prior run's
	// checkpoint. Run validates it against the compiled campaign —
	// name, canonical-encoding hash, seed and per-scenario shape must
	// all match or the resume is rejected — then skips every
	// completed trial and merges the restored per-trial aggregates in
	// trial-index order, so the final result is byte-identical to an
	// uninterrupted run (see checkpoint.go for why).
	ResumeFrom *Checkpoint
	// Interrupt, when readable (closed or sent on), stops dispatching
	// new trials: in-flight trials drain, a final checkpoint is
	// written if CheckpointPath is set, and Run returns
	// *InterruptedError instead of a result.
	Interrupt <-chan struct{}
	// MaxTrialRetries bounds how many times a panicking trial is
	// re-run — same (scenario, replication) stream seed, freshly
	// built cluster — before it degrades to an explicit failure.
	// 0 means DefaultTrialRetries; negative disables retries.
	MaxTrialRetries int
	// Faults is the chaos-injection plan (faults.go); nil injects
	// nothing.
	Faults *FaultPlan
	// Progress, when non-nil, is called after every completed trial
	// (and its checkpoint write, if due) with the cumulative
	// completed-trial count, restored trials included. Shard workers
	// hang their heartbeats here; a blackhole fault freezes these
	// calls along with the checkpoint writes. Called from the
	// checkpointer goroutine — keep it fast and do not call back into
	// the run.
	Progress func(completed int)
	// Metrics, when non-nil, receives the run's fleet_* instrument
	// catalogue (obs.go). Observability is strictly one-way: metrics
	// read the run, never steer it, so the campaign's canonical JSON
	// is byte-identical with Metrics set or nil (pinned by test and
	// CI). A registry may be shared across runs — counters keep
	// accumulating — or across concurrent shards and merged later.
	Metrics *obs.Registry
	// Tracer, when non-nil, makes Run emit one NDJSON span per trial
	// phase plus one per checkpoint write, flushed after the reduction
	// in trial-index order (never completion order). Span identity and
	// tick fields are deterministic for a fixed (campaign, seed);
	// only the wall_ns field varies run to run. Same neutrality
	// contract as Metrics. RunShard ignores the tracer: shard-mode
	// spans would interleave nondeterministically across processes.
	Tracer *obs.Tracer
}

// TrialFailure is the structured record of one panicking trial
// attempt: which trial, which attempt, what the panic said and where.
// Failures ride on CampaignResult outside the canonical JSON bytes —
// stack traces embed goroutine numbers and addresses, which would
// break the byte-determinism contract — and checkpoints likewise
// persist only the per-scenario failure counts. The json tags are the
// stable artifact schema of `fleetrun -failures`: every field but
// Stack, which is deliberately excluded (nondeterministic, and
// stderr-only by contract).
type TrialFailure struct {
	Scenario    string `json:"scenario"`
	Replication int    `json:"replication"`
	Attempt     int    `json:"attempt"` // 1-based
	Terminal    bool   `json:"terminal"` // the retry budget is exhausted; the trial degraded to a counted failure
	Panic       string `json:"panic"`
	Stack       string `json:"-"`
}

// InterruptedError reports a run stopped by Options.Interrupt or a
// FaultPlan KillAfterTrials fault, after in-flight trials drained and
// the final checkpoint (if requested) was written.
type InterruptedError struct {
	Completed  int    // trials completed, restored ones included
	Total      int    // trials in the campaign
	Checkpoint string // path of the final checkpoint; "" if none was requested
}

func (e *InterruptedError) Error() string {
	if e.Checkpoint == "" {
		return fmt.Sprintf("fleet: campaign interrupted after %d/%d trials (no checkpoint path: completed trials were discarded)", e.Completed, e.Total)
	}
	return fmt.Sprintf("fleet: campaign interrupted after %d/%d trials (checkpoint: %s)", e.Completed, e.Total, e.Checkpoint)
}

// ScenarioResult aggregates one scenario's trials with mergeable
// streaming statistics — no per-trial sample slices are retained, so
// campaigns scale to arbitrary replication counts.
type ScenarioResult struct {
	Name         string             `json:"name"`
	Replications int                `json:"replications"`
	Util         metrics.Acc        `json:"util"`
	Makespan     metrics.Acc        `json:"makespan_ticks"`
	MakespanHist *metrics.Histogram `json:"makespan_hist"`
	Crashes      int                `json:"crashes"`
	Cofailures   int                `json:"cofailures"`
	// Unfinished counts jobs still pending or running at the horizon,
	// summed over trials; nonzero means the horizon is too short for
	// the workload.
	Unfinished int `json:"unfinished"`
	// Failures counts trials that exhausted their panic-retry budget
	// and degraded to an empty aggregate instead of aborting the
	// campaign. Replications counts successful trials only, so
	// Replications+Failures equals the scenario's configured count —
	// a nonzero value marks the scenario's statistics as partial.
	Failures int `json:"failures"`
	// Attack aggregates the scenario's adversary campaigns — present
	// exactly when the scenario spec carries an attack, so campaigns
	// without one keep their pre-attack JSON bytes (omitempty).
	Attack *attack.Agg `json:"attack,omitempty"`
}

// Merge folds another shard of the same scenario in. Merge order is
// the caller's contract: MergeScenario always merges in replication
// order, so floating-point accumulation is reproducible.
func (r *ScenarioResult) Merge(o *ScenarioResult) error {
	if r.Name != o.Name {
		return fmt.Errorf("fleet: merging results of different scenarios (%q vs %q)", r.Name, o.Name)
	}
	r.Replications += o.Replications
	r.Util.Merge(o.Util)
	r.Makespan.Merge(o.Makespan)
	if err := r.MakespanHist.Merge(o.MakespanHist); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", r.Name, err)
	}
	r.Crashes += o.Crashes
	r.Cofailures += o.Cofailures
	r.Unfinished += o.Unfinished
	r.Failures += o.Failures
	if (r.Attack == nil) != (o.Attack == nil) {
		return fmt.Errorf("fleet: scenario %q: one partial carries an attack aggregate and the other does not", r.Name)
	}
	if r.Attack != nil {
		r.Attack.Merge(o.Attack)
	}
	return nil
}

// CampaignResult is a completed campaign: one merged ScenarioResult
// per scenario, in campaign order. Worker count is deliberately NOT
// part of the result, so records from differently-sharded runs are
// comparable byte for byte.
type CampaignResult struct {
	Campaign  string            `json:"campaign"`
	Seed      uint64            `json:"seed"`
	Scenarios []*ScenarioResult `json:"scenarios"`
	// TrialFailures records every panicking attempt observed during
	// the run in trial-index order, retried-then-recovered attempts
	// included. Excluded from the canonical JSON (stacks are not
	// deterministic); per-scenario terminal counts are in the
	// Failures fields above.
	TrialFailures []TrialFailure `json:"-"`
	// CheckpointWriteFailures counts checkpoint writes (periodic or
	// final) that failed without stopping the run; the next interval
	// retried.
	CheckpointWriteFailures int `json:"-"`
	// Spans is the phase trace collected when Options.Tracer was set:
	// executed trials in trial-index order, each trial's attempts in
	// attempt order, then checkpoint-write spans in write order.
	// Excluded from the canonical JSON — wall_ns is nondeterministic
	// by design, and restored trials contribute no spans, so a resumed
	// run's trace legitimately differs from an uninterrupted one while
	// its result bytes do not.
	Spans []obs.Span `json:"-"`
}

// JSON renders the canonical record: indented, trailing newline,
// deterministic for a fixed (campaign, seed) regardless of workers.
func (r *CampaignResult) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Table renders the campaign summary in the repo's experiment-table
// form.
func (r *CampaignResult) Table() *metrics.Table {
	// The attack column appears only when some scenario ran an
	// adversary, so pre-attack campaigns render exactly as before.
	attacked := false
	for _, s := range r.Scenarios {
		if s.Attack != nil {
			attacked = true
			break
		}
	}
	cols := []string{"scenario", "reps", "util mean", "util sd", "makespan mean", "makespan max", "crashes", "cofail", "unfinished", "failures"}
	if attacked {
		cols = append(cols, "attack")
	}
	t := metrics.NewTable(fmt.Sprintf("fleet campaign: %s", r.Campaign), cols...)
	for _, s := range r.Scenarios {
		// The makespan tail comes from the Acc (exact across
		// replications); the histogram's horizon-scaled buckets are too
		// coarse to render as a quantile.
		row := []any{s.Name, s.Replications,
			s.Util.Mean, s.Util.Std(),
			s.Makespan.Mean, s.Makespan.Max,
			s.Crashes, s.Cofailures, s.Unfinished, s.Failures}
		if attacked {
			cell := "—"
			if s.Attack != nil {
				cell = s.Attack.Summary()
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	t.AddNote("seed %d; trial streams keyed by (scenario, replication) — results are worker-count-invariant", r.Seed)
	return t
}

// Run executes every trial of the campaign across a pool of worker
// goroutines and reduces the run's final checkpoint with
// MergeCheckpoints, merging per-trial results in replication order.
//
// Determinism contract: for a fixed (campaign, seed) the result —
// including its JSON() bytes — is identical for any worker count and
// any trial completion order. Three mechanisms combine to guarantee
// it: trials share no state (each builds its own cluster), each
// trial's RNG stream is derived from (scenario name, replication
// index) rather than from draw order, and the reduction merges
// fixed-size per-trial aggregates in trial-index order rather than
// completion order.
//
// Failure model (see DESIGN.md §8): a panicking trial is retried
// under the identical stream seed on a quarantined-then-rebuilt
// cluster up to the retry budget, then degrades to a counted failure;
// a genuine error (infeasible submit, broken config) still aborts the
// campaign; Interrupt stops dispatch, drains in-flight trials,
// checkpoints and returns *InterruptedError. Because restored
// aggregates re-enter the reduction at their own trial index, a
// resumed run's bytes equal an uninterrupted run's.
func Run(c Campaign, opt Options) (*CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	all := make([]RepRange, len(c.Scenarios))
	for si, s := range c.Scenarios {
		all[si] = RepRange{Hi: s.Replications}
	}
	st, err := execute(c, opt, all, nil)
	if err != nil {
		return nil, err
	}
	res, err := MergeCheckpoints(c, opt.Seed, []*Checkpoint{st.ck}, false)
	if err != nil {
		return nil, err
	}
	res.CheckpointWriteFailures = st.writeFailures
	res.TrialFailures = st.failures
	if opt.Tracer != nil {
		for _, g := range st.spans {
			res.Spans = append(res.Spans, g...)
		}
		res.Spans = append(res.Spans, st.ckSpans...)
		if terr := opt.Tracer.Write(res.Spans); terr != nil {
			return nil, fmt.Errorf("fleet: writing trace: %w", terr)
		}
	}
	return res, nil
}

// trialRef addresses one trial in the campaign's scenario-major
// trial-index order.
type trialRef struct {
	scenario int
	rep      int
}

// runState is what execute hands back to Run and RunShard.
type runState struct {
	ck            *Checkpoint    // the final checkpoint, built whether or not it was saved
	failures      []TrialFailure // flattened, trial-index order
	writeFailures int
	finalCkErr    error
	spans         [][]obs.Span // per trial index; nil unless tracing
	ckSpans       []obs.Span   // checkpoint-write spans, write order
}

// Shard death states, owned by the checkpointer goroutine; the main
// goroutine reads them only after <-checkpointerDone.
const (
	stateAlive = iota
	stateKilled
	stateWedged
)

// execute runs the campaign's trials in the per-scenario replication
// ranges and ends in a checkpoint of every completed trial, restored
// ones included; the caller reduces it. sh is the shard identity that
// arms shard-level faults — nil under Run, which owns every range.
func execute(c Campaign, opt Options, ranges []RepRange, sh *ShardRun) (*runState, error) {
	comp, err := compileCampaign(c, opt.Seed)
	if err != nil {
		return nil, err
	}
	inj, err := compileFaults(opt.Faults, c, sh)
	if err != nil {
		return nil, err
	}
	hash, err := CampaignHash(c)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	trials := make([]trialRef, 0, c.Trials())
	for si, s := range c.Scenarios {
		for rep := 0; rep < s.Replications; rep++ {
			trials = append(trials, trialRef{scenario: si, rep: rep})
		}
	}
	// target marks the trials this run owns. Out-of-target trials are
	// never dispatched and never counted toward completion.
	target := NewBitmap(len(trials))
	base := 0
	for si, s := range c.Scenarios {
		for rep := ranges[si].Lo; rep < ranges[si].Hi; rep++ {
			target.Set(base + rep)
		}
		base += s.Replications
	}
	targetN := target.Count()
	if workers > targetN {
		workers = targetN
	}
	// Observability handles resolve once per run, never per trial; the
	// all-nil bundle (Metrics unset) makes every update below a
	// nil-check no-op.
	m := newRunMetrics(opt.Metrics)
	tracing := opt.Tracer != nil
	var spanGroups [][]obs.Span
	if tracing {
		spanGroups = make([][]obs.Span, len(trials))
	}

	// Each worker writes only its own trial's slots, so the slices
	// need no lock; the per-trial send on done (and finally wg.Wait)
	// is the happens-before edge to the checkpointer and the reducer.
	// Cluster pooling is strictly per worker (each goroutine owns its
	// pool; pooled clusters are never handed across goroutines), so
	// trials stay share-nothing and the determinism argument is
	// untouched by which worker runs which trial.
	partials := make([]*ScenarioResult, len(trials))
	errs := make([]error, len(trials))
	failures := make([][]TrialFailure, len(trials))

	restored := NewBitmap(len(trials))
	if opt.ResumeFrom != nil {
		if err := opt.ResumeFrom.ValidateAgainst(c, opt.Seed); err != nil {
			return nil, err
		}
		// Restored partials alias the caller's Checkpoint: nothing
		// downstream mutates them (MergeCheckpoints folds into a clone),
		// so one Checkpoint can seed any number of resumes.
		base = 0
		for si := range c.Scenarios {
			sc := &opt.ResumeFrom.Scenarios[si]
			for pi := range sc.Partials {
				p := &sc.Partials[pi]
				partials[base+p.Replication] = &p.Result
				restored.Set(base + p.Replication)
			}
			base += c.Scenarios[si].Replications
		}
		m.trialsRestored.Add(int64(restored.Count()))
	}

	attempts := opt.MaxTrialRetries + 1
	switch {
	case opt.MaxTrialRetries == 0:
		attempts = DefaultTrialRetries + 1
	case opt.MaxTrialRetries < 0:
		attempts = 1
	}

	// interrupt trips at most once — from Options.Interrupt or from a
	// chaos kill-after fault — and stops the dispatch loop; in-flight
	// trials always drain normally.
	interrupt := make(chan struct{})
	var tripOnce sync.Once
	trip := func() { tripOnce.Do(func() { close(interrupt) }) }
	runDone := make(chan struct{})
	defer close(runDone)
	if opt.Interrupt != nil {
		// An interrupt that fired before the run started must stop it
		// before any dispatch — checked synchronously here because the
		// forwarder goroutine below races a fast campaign.
		select {
		case <-opt.Interrupt:
			trip()
		default:
		}
		go func() {
			select {
			case <-opt.Interrupt:
				trip()
			case <-runDone:
			}
		}()
	}

	// The checkpointer consumes completion announcements. Workers
	// send a trial's index only after recording its result, so the
	// channel receive lets this goroutine read that slot while the
	// run is still going.
	done := make(chan int, len(trials))
	completed := restored.Clone()
	every := opt.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	writes := 0
	writeFailures := 0
	// Checkpoint spans live outside the per-trial groups: their Seq is
	// the 1-based write ordinal and their scenario is empty. The WRITE
	// COUNT is deterministic (every `every`-th completion plus the
	// final write) even though which trials each sidecar contains is
	// not — so the span stream stays comparable across runs. Appends
	// happen in the checkpointer goroutine and, for the final write,
	// in the main goroutine strictly after <-checkpointerDone.
	var ckSpans []obs.Span
	writeCheckpoint := func(ck *Checkpoint) error {
		writes++
		var wallFrom time.Time
		if tracing {
			wallFrom = time.Now()
		}
		err := inj.checkpointWriteErr(writes)
		if err == nil {
			err = ck.Save(opt.CheckpointPath)
		}
		m.ckWrites.Inc()
		if err != nil {
			writeFailures++
			m.ckWriteFailures.Inc()
		}
		if tracing {
			ckSpans = append(ckSpans, obs.Span{
				Phase:  obs.PhaseCheckpoint,
				Seq:    writes,
				WallNS: time.Since(wallFrom).Nanoseconds(),
			})
		}
		return err
	}
	checkpointerDone := make(chan struct{})
	dead := stateAlive
	go func() {
		defer close(checkpointerDone)
		n := 0
		for ti := range done {
			// A killed or wedged shard records nothing further: the
			// channel still drains (workers must not block) but the
			// bitmap, the sidecar and the heartbeats are frozen at
			// the fault point, which is what makes retry-from-
			// checkpoint deterministic.
			if dead != stateAlive {
				continue
			}
			completed.Set(ti)
			m.trialsCompleted.Inc()
			n++
			// A failed periodic write is tolerated — counted, retried
			// at the next interval: losing one checkpoint must not
			// kill the campaign the checkpoint exists to protect.
			if opt.CheckpointPath != "" && n%every == 0 {
				_ = writeCheckpoint(buildCheckpoint(c, hash, opt.Seed, partials, completed))
			}
			if opt.Progress != nil {
				opt.Progress(completed.Count())
			}
			// Shard faults fire on the n-th NEW completion, after its
			// checkpoint write, so the sidecar holds exactly n trials
			// when the shard dies.
			switch inj.shardFaultAt(n) {
			case ShardKill:
				if sh != nil && sh.Die != nil {
					sh.Die() // exec workers self-SIGKILL here and never return
				}
				dead = stateKilled
				trip() // stop dispatch; in-flight trials drain unrecorded
			case ShardBlackhole:
				dead = stateWedged // keep running, silently
			}
		}
	}()

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			tw := newTrialWorker(comp, !opt.DisablePooling)
			tw.faults = inj
			tw.m = m
			if tracing {
				tw.rec = &obs.Recorder{}
			}
			for ti := range work {
				inj.delayWorker(worker)
				inj.delayShardTrial()
				ref := trials[ti]
				partials[ti], failures[ti], errs[ti] = tw.runTrialIsolated(ref.scenario, ref.rep, attempts)
				if tracing {
					// Like partials: each worker writes only its own
					// trial's slot, so the groups need no lock and the
					// flush can order them by trial index.
					spanGroups[ti] = tw.rec.Take()
				}
				if errs[ti] == nil {
					done <- ti
				}
			}
		}(w)
	}
	dispatched := 0
dispatch:
	for ti := range trials {
		if !target.Get(ti) || restored.Get(ti) {
			continue
		}
		// The chaos kill counts dispatches synchronously right here,
		// so exactly KillAfterTrials new trials run — deterministic
		// where counting asynchronous completions would race fast
		// campaigns to the finish before the kill ever fired.
		if k := inj.killAfterTrials(); k > 0 && dispatched >= k {
			trip()
			break dispatch
		}
		// Prefer the interrupt when both are ready, so "stop now"
		// stops dispatch at the first opportunity.
		select {
		case <-interrupt:
			break dispatch
		default:
		}
		select {
		case work <- ti:
			dispatched++
		case <-interrupt:
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	close(done)
	<-checkpointerDone

	st := &runState{writeFailures: writeFailures, spans: spanGroups}
	for ti := range trials {
		st.failures = append(st.failures, failures[ti]...)
	}

	// An abruptly-dead or wedged shard writes NO final checkpoint:
	// the sidecar stays frozen at the fault point, exactly what a
	// SIGKILLed process would leave behind.
	switch dead {
	case stateKilled:
		return st, ErrShardKilled
	case stateWedged:
		// Linger silently — alive, no heartbeats, no exit — until the
		// supervisor gives up on the heartbeat deadline and kills us
		// (exec mode) or trips Interrupt (in-process mode).
		if opt.Interrupt != nil {
			<-opt.Interrupt
		}
		return st, ErrShardWedged
	}

	// The final checkpoint covers every drained trial no matter how
	// the run ends — complete, interrupted, or about to abort on a
	// trial error — so completed work is never thrown away. It is built
	// even when nothing is saved: it is the input of the reduction.
	st.ck = buildCheckpoint(c, hash, opt.Seed, partials, completed)
	if opt.CheckpointPath != "" {
		st.finalCkErr = writeCheckpoint(st.ck)
	}
	st.ckSpans = ckSpans

	for ti, err := range errs {
		if err != nil {
			ref := trials[ti]
			return st, fmt.Errorf("fleet: scenario %q replication %d: %w", c.Scenarios[ref.scenario].Name, ref.rep, err)
		}
	}
	interrupted := false
	select {
	case <-interrupt:
		interrupted = true
	default:
	}
	// An interrupt that raced the last completion interrupted
	// nothing: with every owned trial done the full result stands.
	// Completion is counted over the run's target — a shard cares
	// only about its own ranges, however many restored out-of-range
	// partials a sidecar carried in.
	doneN := 0
	for ti := range trials {
		if target.Get(ti) && completed.Get(ti) {
			doneN++
		}
	}
	if interrupted && doneN < targetN {
		if st.finalCkErr != nil {
			return st, fmt.Errorf("fleet: interrupted after %d/%d trials and the final checkpoint write failed: %w",
				doneN, targetN, st.finalCkErr)
		}
		return st, &InterruptedError{Completed: doneN, Total: targetN, Checkpoint: opt.CheckpointPath}
	}
	return st, nil
}

// makespanBuckets is the fixed histogram resolution. The layout must
// be known before any trial runs so all partials of a scenario merge,
// and [0, horizon] is the only pre-known bound — so the buckets are
// horizon-scaled (coarse): the histogram records the distribution's
// shape at horizon resolution (e.g. replications that nearly ran out
// of horizon), while exact min/mean/max come from the Makespan Acc.
const makespanBuckets = 16

// ProvisionMix provisions spec.Users accounts ("u0", "u1", …) on the
// cluster and builds the submission mix from rng — the shared idiom
// of every campaign-shaped experiment (fleet trials, the E4 table,
// the E16 drain).
func ProvisionMix(c *core.Cluster, spec workload.MixSpec, rng *metrics.RNG) ([]workload.Submission, error) {
	creds := make([]ids.Credential, spec.Users)
	for u := range creds {
		acct, err := c.AddUser(UserName(u), "pw")
		if err != nil {
			return nil, err
		}
		creds[u] = acct.Cred
	}
	return spec.Build(rng, creds)
}

// compiledScenario is a Scenario with everything trial-invariant
// resolved up front: the derived Config (profile + ablations + policy
// override — no per-trial policy re-parsing or profile resolution),
// the topology, the scenario's RNG stream seed (the FNV hop of
// TrialSeed, hoisted so the per-trial derivation is two integer ops),
// and the provisioning user count (names come from the process-wide
// intern pool — see UserName — so no per-scenario slice exists).
type compiledScenario struct {
	spec   *Scenario
	cfg    core.Config
	topo   core.Topology
	stream uint64 // scenario RNG stream: StreamSeed(master, fnv(Name))
	users  int    // accounts to provision per replication: "u0".."uN-1"
	// attack is the scenario's adversary campaign resolved against
	// the step registry once (nil when the spec has none), shared
	// read-only across workers like the rest of the compile.
	attack *attack.Compiled
}

// compileCampaign resolves every scenario once. Campaign.Validate has
// already dry-run the same resolution, so errors here are unexpected.
func compileCampaign(c Campaign, master uint64) ([]compiledScenario, error) {
	comp := make([]compiledScenario, len(c.Scenarios))
	for i := range c.Scenarios {
		s := &c.Scenarios[i]
		opts, err := s.options()
		if err != nil {
			return nil, err
		}
		prof, err := core.ProfileByName(s.Profile)
		if err != nil {
			return nil, err
		}
		resolved, topo, err := core.ResolveProfile(prof, opts...)
		if err != nil {
			return nil, err
		}
		cfg, err := resolved.Config()
		if err != nil {
			return nil, err
		}
		comp[i] = compiledScenario{
			spec: s, cfg: cfg, topo: topo,
			stream: metrics.StreamSeed(master, nameHash(s.Name)),
			users:  s.Workload.Users,
		}
		if s.Attack != nil {
			ca, err := s.Attack.Compile()
			if err != nil {
				return nil, err
			}
			comp[i].attack = ca
		}
	}
	return comp, nil
}

// trialWorker is one worker goroutine's execution state: the pooled
// cluster and reusable buffers per scenario. Nothing here is shared —
// each worker builds its own, which is what keeps pooled campaigns
// race-free by construction (and why the pool is per worker rather
// than a shared free-list: a cluster crossing goroutines would need
// locking and would order-couple trials).
type trialWorker struct {
	comp      []compiledScenario
	pooling   bool
	slots     map[int]*scenarioSlot
	rng       metrics.RNG
	attackRNG metrics.RNG    // the adversary's stream, separate from the mix's
	faults    *faultInjector // nil = no chaos
	attempt   int            // current attempt number; keys chaos panic points
	m         runMetrics     // all-nil bundle when Options.Metrics is unset
	rec       *obs.Recorder  // phase span recorder; nil unless tracing
}

// scenarioSlot is the per-(worker, scenario) reuse state.
type scenarioSlot struct {
	cluster *core.Cluster // retained across trials only when pooling
	users   []ids.Credential
	scratch workload.BuildScratch
}

func newTrialWorker(comp []compiledScenario, pooling bool) *trialWorker {
	return &trialWorker{comp: comp, pooling: pooling, slots: make(map[int]*scenarioSlot)}
}

// trialResult bundles a trial's aggregate with its histogram storage
// so the whole per-trial record is one allocation.
type trialResult struct {
	res    ScenarioResult
	hist   metrics.Histogram
	counts [makespanBuckets]int64
}

// runTrialIsolated runs one trial under panic isolation: a panicking
// attempt is recorded as a TrialFailure, the worker's slot for the
// scenario is quarantined (a panic voids the pristine-Reset
// guarantee, so the pooled cluster AND the scratch buffers are
// dropped and rebuilt fresh), and the trial is retried under the
// identical (scenario, replication) stream seed — a successful retry
// is indistinguishable from a first-try success, byte for byte. When
// the attempt budget is exhausted the trial degrades to an empty
// aggregate carrying an explicit failure count instead of killing
// the campaign. Genuine errors (not panics) still abort.
func (w *trialWorker) runTrialIsolated(scenario, rep, attempts int) (*ScenarioResult, []TrialFailure, error) {
	var fails []TrialFailure
	for attempt := 1; attempt <= attempts; attempt++ {
		res, failure, err := w.runTrialAttempt(scenario, rep, attempt)
		if err != nil {
			return nil, fails, err
		}
		if failure == nil {
			return res, fails, nil
		}
		w.m.trialPanics.Inc()
		if attempt < attempts {
			w.m.trialRetries.Inc()
		}
		fails = append(fails, *failure)
	}
	fails[len(fails)-1].Terminal = true
	w.m.trialsDegraded.Inc()
	return DegradedTrialResult(w.comp[scenario].spec), fails, nil
}

// runTrialAttempt is one recover()-guarded execution of runTrial.
func (w *trialWorker) runTrialAttempt(scenario, rep, attempt int) (res *ScenarioResult, failure *TrialFailure, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Quarantine the whole slot: nothing a panicked trial may
			// have touched — cluster, credential cache, build scratch
			// — is reusable. The half-open phase span is dropped too:
			// a panicked phase has no deterministic end tick.
			delete(w.slots, scenario)
			w.rec.Abandon()
			res, err = nil, nil
			failure = &TrialFailure{
				Scenario:    w.comp[scenario].spec.Name,
				Replication: rep,
				Attempt:     attempt,
				Panic:       fmt.Sprint(r),
				Stack:       string(debug.Stack()),
			}
		}
	}()
	w.attempt = attempt
	w.rec.StartAttempt(w.comp[scenario].spec.Name, rep, attempt)
	res, err = w.runTrial(scenario, rep)
	return res, nil, err
}

// histogramFor is the scenario's fixed histogram layout over the
// given backing storage — the one shape every partial of a scenario
// must share for the trial-index-order merge to be defined.
func histogramFor(s *Scenario, counts []int64) metrics.Histogram {
	return metrics.Histogram{Lo: 0, Hi: float64(s.Horizon), Counts: counts}
}

// runTrial executes one (scenario, replication) trial: a cluster per
// the scenario — pooled and Reset, or built fresh — provisioned with
// the scenario's users, submitted the mix drawn from the trial's own
// RNG stream, drained up to the horizon, and summarized into a
// one-trial aggregate.
func (w *trialWorker) runTrial(scenario, rep int) (*ScenarioResult, error) {
	cs := &w.comp[scenario]
	s := cs.spec
	w.faults.hitPoint(s.Name, rep, w.attempt, PointBegin)
	// Phase spans bracket the trial's stages at simulation-clock
	// boundaries; reset and mix run before any tick elapses, so their
	// tick bounds are [0,0] by construction.
	w.rec.Begin(0)
	slot := w.slots[scenario]
	if slot == nil {
		slot = &scenarioSlot{}
		w.slots[scenario] = slot
	}
	c := slot.cluster
	if c != nil {
		if err := c.Reset(); err != nil {
			return nil, err
		}
		w.m.poolHits.Inc()
	} else {
		var err error
		if c, err = core.New(cs.cfg, cs.topo); err != nil {
			return nil, err
		}
		if w.pooling {
			slot.cluster = c
		}
		w.m.poolBuilds.Inc()
	}
	w.rec.End(obs.PhaseReset, 0)

	// The trial stream depends only on (master, scenario name, rep):
	// never on the worker, the pool state, or the completion order.
	w.rec.Begin(0)
	w.rng.Reseed(metrics.StreamSeed(cs.stream, uint64(rep)))
	creds := slot.users[:0]
	for u := 0; u < cs.users; u++ {
		acct, err := c.AddUser(UserName(u), "pw")
		if err != nil {
			return nil, err
		}
		creds = append(creds, acct.Cred)
	}
	slot.users = creds
	mix, err := s.Workload.BuildInto(&w.rng, creds, &slot.scratch)
	if err != nil {
		return nil, err
	}
	for i := range mix {
		if _, err := c.Sched.Submit(mix[i].Cred, mix[i].Spec); err != nil {
			return nil, err
		}
	}
	w.faults.hitPoint(s.Name, rep, w.attempt, PointSubmit)
	w.rec.End(obs.PhaseMix, c.Now())
	// The adversary campaign (if any) runs against the live cluster
	// right after submission — concurrent with the mix, which keeps
	// draining through the campaign's pacing gaps and waits. Its RNG
	// is a separate stream under the same trial seed (StreamIndex
	// hop), so mix draws and attack draws never perturb each other.
	var att *attack.Outcome
	if cs.attack != nil {
		w.rec.Begin(c.Now())
		w.attackRNG.Reseed(metrics.StreamSeed(metrics.StreamSeed(cs.stream, uint64(rep)), attack.StreamIndex))
		var aerr error
		att, _, aerr = cs.attack.Execute(c, &w.attackRNG, s.Horizon)
		if aerr != nil {
			return nil, aerr
		}
		w.rec.End(obs.PhaseAttack, c.Now())
		w.m.attackSteps.Add(int64(att.Steps))
	}
	// Drain whatever horizon the campaign left. Plain scenarios reach
	// here with the clock still at 0, so this is the pre-attack
	// RunAll(Horizon) byte for byte; attacked trials count the
	// campaign's ticks toward the same horizon and makespan.
	w.rec.Begin(c.Now())
	if remaining := s.Horizon - int(c.Now()); remaining > 0 {
		c.RunAll(remaining)
	}
	w.rec.End(obs.PhaseDrain, c.Now())
	ticks := int(c.Now())
	crashes, cofail := c.Sched.Crashes()
	// Sched.Stats is per trial: Reset (pooled) and fresh builds both
	// start the tallies at zero, so this reads exactly this trial's
	// real vs fast-forwarded ticks, attack-phase ticks included.
	steps, ff := c.Sched.Stats()
	w.m.schedSteps.Add(steps)
	w.m.schedFastForwarded.Add(ff)

	w.rec.Begin(c.Now())
	tr := &trialResult{}
	tr.hist = histogramFor(s, tr.counts[:])
	tr.res = ScenarioResult{
		Name:         s.Name,
		Replications: 1,
		MakespanHist: &tr.hist,
		Crashes:      crashes,
		Cofailures:   cofail,
		Unfinished:   len(c.Sched.Squeue(ids.RootCred())), // pending + still-running at the horizon
	}
	tr.res.Util.Add(c.Sched.Utilization())
	tr.res.Makespan.Add(float64(ticks))
	tr.res.MakespanHist.Add(float64(ticks))
	if att != nil {
		agg := attack.NewAgg()
		agg.AddOutcome(att)
		tr.res.Attack = agg
	}
	w.m.trialTicks.Observe(float64(ticks))
	w.rec.End(obs.PhaseAggregate, c.Now())
	return &tr.res, nil
}
