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

// trialAttempts is how many times a panicking trial runs — the first
// attempt and two retries — before it degrades to a counted failure.
const trialAttempts = 3

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
	// checkpoint journal (journal.go): created atomically when the run
	// starts, then appended with one write and one fsync every
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
	// Interrupt, when readable (closed or sent on), drops every queued
	// trial: no new trial starts, in-flight trials drain, a final
	// checkpoint is written if CheckpointPath is set, and Run returns
	// *InterruptedError instead of a result. One that is readable
	// before the run starts runs no trial.
	Interrupt <-chan struct{}
	// Faults is the chaos-injection plan (faults.go); nil injects
	// nothing.
	Faults *FaultPlan
	// Progress, when non-nil, is called after every completed trial
	// (and its checkpoint write, if due) with the cumulative
	// completed-trial count, restored trials included. A blackhole
	// fault freezes these calls along with the checkpoint writes.
	// Called from the goroutine that called Run or RunShard, between
	// completions — keep it fast and do not call back into the run.
	Progress func(completed int)
	// Metrics, when non-nil, receives the run's fleet_* instrument
	// catalogue (obs.go). Observability is strictly one-way: metrics
	// read the run, never steer it, so the campaign's canonical JSON
	// is byte-identical with Metrics set or nil (pinned by test and
	// CI). A registry may be shared across runs, whose counters keep
	// accumulating, or across concurrent shards.
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
	Attempt     int    `json:"attempt"`  // 1-based
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
// goroutines and folds each per-trial result into its scenario's
// aggregate once every earlier trial of that scenario is in, the Merge
// sequence MergeCheckpoints runs over the same trials.
//
// Determinism contract: for a fixed (campaign, seed) the result —
// including its JSON() bytes — is identical for any worker count and
// any trial completion order. Three mechanisms combine to guarantee
// it: trials share no state (each builds its own cluster), each
// trial's RNG stream is derived from (scenario name, replication
// index) rather than from draw order, and the reduction merges
// fixed-size per-trial aggregates in trial-index order rather than
// completion order: a trial that lands early waits in the trial table
// until its scenario's frontier reaches it.
//
// Failure model (see DESIGN.md §8): a panicking trial is retried
// under the identical stream seed on a quarantined-then-rebuilt
// cluster up to the retry budget, then degrades to a counted failure;
// a genuine error (infeasible submit, broken config) still aborts the
// campaign; Interrupt drops the queued trials, drains in-flight ones,
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
	res, err := st.fold.result(c, opt.Seed)
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

// trialOutcome is what a worker hands the recording loop for one
// queued trial. res is set only when the run keeps a journal.
type trialOutcome struct {
	res   *ScenarioResult
	fails []TrialFailure
	err   error
}

// dispatcher hands out a run's queued trials scenario by scenario.
// The queue is a prefix of todo, which is in trial-index order, so each
// scenario's queued trials are one range [next, end) of todo indices.
// claim keeps a worker on its scenario while that scenario has a trial
// left; then it starts the lowest-indexed scenario nobody has started,
// and once every scenario has started it joins the one with the most
// trials left. A worker therefore leaves a scenario only when no trial
// of it is left, and each scenario's pooled cluster is built once by
// the worker that starts it, plus once per worker that joins it. The
// caller serializes claim and drop.
type dispatcher struct {
	next, end []int // per scenario
	fresh     int   // the scenarios below fresh have started
}

func newDispatcher(queue []trialRef, scenarios int) *dispatcher {
	d := &dispatcher{next: make([]int, scenarios), end: make([]int, scenarios)}
	for k, ref := range queue {
		if d.next[ref.scenario] == d.end[ref.scenario] {
			d.next[ref.scenario] = k
		}
		d.end[ref.scenario] = k + 1
	}
	return d
}

// claim returns the todo index of the next trial for a worker whose
// current scenario is cur (-1 before its first trial), or -1 when no
// trial is left.
func (d *dispatcher) claim(cur int) int {
	si := cur
	if si < 0 || d.next[si] == d.end[si] {
		si = -1
		for si < 0 && d.fresh < len(d.next) {
			if d.next[d.fresh] < d.end[d.fresh] {
				si = d.fresh
			}
			d.fresh++
		}
	}
	if si < 0 {
		most := 0
		for s := range d.next {
			if n := d.end[s] - d.next[s]; n > most {
				si, most = s, n
			}
		}
		if si < 0 {
			return -1
		}
	}
	k := d.next[si]
	d.next[si]++
	return k
}

// drop removes every trial not yet claimed and returns how many.
func (d *dispatcher) drop() int {
	n := 0
	for s := range d.next {
		n += d.end[s] - d.next[s]
		d.next[s] = d.end[s]
	}
	return n
}

// runState is what execute hands back to Run and RunShard.
type runState struct {
	fold          *tableFold     // Run's reduction; nil under RunShard
	journaled     int            // trials the journal holds, restored ones included
	failures      []TrialFailure // flattened, trial-index order
	writeFailures int
	finalCkErr    error
	spans         [][]obs.Span // per todo trial, trial-index order; nil unless tracing
	ckSpans       []obs.Span   // checkpoint-write spans, write order
}

// Shard death states, set by execute's recording loop when a shard
// fault fires.
const (
	stateAlive = iota
	stateKilled
	stateWedged
)

// execute runs the campaign's trials in the per-scenario replication
// ranges. Under Run (sh nil: it owns every range) each trial is folded
// into the run's result as its scenario's frontier passes it; under
// RunShard the journal is the result and a trial is dropped once it is
// encoded there. sh is the shard identity that arms shard-level faults.
//
// Workers claim trials from a dispatcher that keeps each worker on one
// scenario until that scenario has no trial left. Under Run the worker
// that finishes a trial also files it in the table and advances its
// scenario's frontier; one table lock guards the dispatcher, the table
// and the fold, and each hold of it is one claim or one landing. The
// worker then announces the trial on done. Everything else — the
// journal, Progress, the shard faults, the interrupt — happens on the
// calling goroutine, in one loop that records completions until every
// queued trial is accounted for.
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
	// Observability handles resolve once per run, never per trial; the
	// all-nil bundle (Metrics unset) makes every update below a
	// nil-check no-op.
	m := newRunMetrics(opt.Metrics)

	// ck is the run's trial table. Restored partials alias the caller's
	// Checkpoint: nothing downstream mutates them (the fold merges into
	// a clone), so one Checkpoint can seed any number of resumes.
	ck := newCheckpoint(c, hash, opt.Seed)
	restored := 0
	if opt.ResumeFrom != nil {
		if err := opt.ResumeFrom.ValidateAgainst(c, opt.Seed); err != nil {
			return nil, err
		}
		for si := range ck.Scenarios {
			copy(ck.Scenarios[si].Trials, opt.ResumeFrom.Scenarios[si].Trials)
		}
		restored = ck.Completed()
		m.trialsRestored.Add(int64(restored))
	}
	// todo lists, in trial-index order, the trials this run owns that
	// were not restored: the only trials it may queue. Out-of-range
	// trials are never queued and never counted toward completion.
	var todo []trialRef
	owned := 0
	for si, r := range ranges {
		owned += r.Len()
		for rep := r.Lo; rep < r.Hi; rep++ {
			if ck.Trial(si, rep) == nil {
				todo = append(todo, trialRef{scenario: si, rep: rep})
			}
		}
	}

	// The dispatcher holds the todo indices this run starts: none if
	// the interrupt already fired, the first KillAfterTrials if that
	// fault is set, otherwise all. A run that queues fewer than todo is
	// interrupted from the start.
	queued := len(todo)
	select {
	case <-opt.Interrupt:
		queued = 0
	default:
	}
	if k := inj.killAfterTrials(); k > 0 && k < queued {
		queued = k
	}
	interrupted := queued < len(todo)
	disp := newDispatcher(todo[:queued], len(c.Scenarios))

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, queued)
	tracing := opt.Tracer != nil
	var spanGroups [][]obs.Span
	if tracing {
		spanGroups = make([][]obs.Span, len(todo))
	}

	// The journal opens with the header and the restored trials. A
	// failed create is tolerated like a failed periodic write: the next
	// write creates it.
	var jw *journalWriter
	if opt.CheckpointPath != "" {
		head, err := ck.journal()
		if err != nil {
			return nil, err
		}
		jw = &journalWriter{path: opt.CheckpointPath, pending: head, written: m.ckBytes}
		_ = jw.flush(nil)
		defer jw.close()
	}
	// Under Run the table is folded as it fills: the restored trials at
	// the head of each scenario go at once, and each landing advances
	// its scenario's frontier as far as the landed trials reach. Once
	// the workers start, only they touch the table and the fold, under
	// mu.
	var fold *tableFold
	if sh == nil {
		fold = newTableFold(ck)
	}

	every := opt.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	writes := 0
	writeFailures := 0
	// Checkpoint spans live outside the per-trial groups: their Seq is
	// the 1-based write ordinal and their scenario is empty. The WRITE
	// COUNT is deterministic (every `every`-th completion plus the
	// final write) even though which trials each append carries is
	// not — so the span stream stays comparable across runs.
	var ckSpans []obs.Span
	writeCheckpoint := func() error {
		writes++
		var wallFrom time.Time
		if tracing {
			wallFrom = time.Now()
		}
		err := jw.flush(inj.checkpointWriteErr(writes))
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

	// Each worker writes only its own trial's outcome (outs is indexed
	// like todo), so it needs no lock for it; the send of k on done is
	// the happens-before edge to the loop below, which reads it. mu, the
	// table lock, guards the dispatcher and, under Run, the table and
	// the fold. Cluster pooling is strictly per worker (each goroutine
	// owns its pool; pooled clusters are never handed across
	// goroutines), so trials stay share-nothing and the determinism
	// argument is untouched by which worker runs which trial. A worker
	// leaves a scenario only once the dispatcher has no trial of it
	// left, so it releases that slot's pooled cluster then and never
	// needs it again. done holds every queued trial, so no worker ever
	// waits on the loop.
	//
	// A trial the frontier folds at once leaves its record in the
	// worker's slot for the next trial to reuse. One that parks ahead
	// of the frontier, or that the journal still has to encode, keeps
	// its record: the slot lets go of it, and the next trial allocates.
	var mu sync.Mutex
	outs := make([]trialOutcome, len(todo))
	done := make(chan int, queued)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			tw := newTrialWorker(comp, !opt.DisablePooling)
			tw.faults = inj
			tw.m = m
			if tracing {
				tw.rec = &obs.Recorder{}
			}
			cur := -1
			for {
				mu.Lock()
				k := disp.claim(cur)
				mu.Unlock()
				if k < 0 {
					return
				}
				inj.delayWorker(worker)
				inj.delayShardTrial()
				ref := todo[k]
				if ref.scenario != cur {
					delete(tw.slots, cur)
					cur = ref.scenario
				}
				o := &outs[k]
				res, fails, err := tw.runTrialIsolated(ref.scenario, ref.rep, trialAttempts)
				o.fails, o.err = fails, err
				if tracing {
					spanGroups[k] = tw.rec.Take()
				}
				if err == nil {
					folded := false
					if fold != nil {
						mu.Lock()
						folded = fold.land(ref.scenario, ref.rep, res)
						mu.Unlock()
					}
					if jw != nil {
						o.res = res
					}
					if !folded || jw != nil {
						tw.keepRecord(ref.scenario)
					}
				}
				done <- k
			}
		}(w)
	}

	// running counts the queued trials not yet accounted for: each
	// leaves it by finishing (a receive on done) or by being dropped
	// from the dispatcher before a worker claimed it. Every index goes
	// to exactly one side, so the loop ends exactly when the last
	// started trial finishes.
	running := queued
	drop := func() {
		mu.Lock()
		running -= disp.drop()
		mu.Unlock()
	}
	stop := opt.Interrupt
	completed := 0 // new completions recorded
	dead := stateAlive
	for running > 0 {
		// The interrupt is checked before waiting, so "stop now" wins
		// over a completion that is already waiting. k < 0 means it
		// fired.
		k := -1
		select {
		case <-stop:
		default:
			select {
			case <-stop:
			case k = <-done:
			}
		}
		if k < 0 {
			stop, interrupted = nil, true
			drop()
			continue
		}
		running--
		// The outcome gives up its result here: it is set only for the
		// journal, which encodes it below and then lets it go.
		o := &outs[k]
		res := o.res
		o.res = nil
		// A trial that errored records nothing; the error is reported
		// after the final checkpoint. A killed or wedged shard records
		// nothing further: the count and the journal stay frozen at the
		// fault point, which is what makes retry-from-checkpoint
		// deterministic.
		if o.err != nil || dead != stateAlive {
			continue
		}
		m.trialsCompleted.Inc()
		completed++
		// A failed periodic write is tolerated — counted, its lines kept
		// and retried at the next interval: losing one checkpoint must
		// not kill the campaign the checkpoint exists to protect.
		if jw != nil {
			ref := todo[k]
			jw.add(ref.scenario, ref.rep, res)
			if completed%every == 0 {
				_ = writeCheckpoint()
			}
		}
		if opt.Progress != nil {
			opt.Progress(restored + completed)
		}
		// Shard faults fire on the n-th NEW completion, after its
		// checkpoint write, so the journal holds exactly n trials when
		// the shard dies.
		switch inj.shardFaultAt(completed) {
		case ShardKill:
			if sh != nil && sh.Die != nil {
				sh.Die() // exec workers self-SIGKILL here and never return
			}
			dead = stateKilled
			drop() // in-flight trials drain unrecorded
		case ShardBlackhole:
			dead = stateWedged // keep running, silently
		}
	}

	st := &runState{spans: spanGroups, fold: fold, journaled: restored + completed}
	for _, o := range outs {
		st.failures = append(st.failures, o.fails...)
	}

	// An abruptly-dead or wedged shard writes NO final checkpoint:
	// the journal stays frozen at the fault point, exactly what a
	// SIGKILLed process would leave behind.
	switch dead {
	case stateKilled:
		return st, ErrShardKilled
	case stateWedged:
		// Linger silently — alive, journal frozen, no exit — until the
		// supervisor gives up on the heartbeat deadline and kills us
		// (exec mode) or trips Interrupt (in-process mode).
		if opt.Interrupt != nil {
			<-opt.Interrupt
		}
		return st, ErrShardWedged
	}

	// The final checkpoint covers every drained trial no matter how
	// the run ends — complete, interrupted, or about to abort on a
	// trial error — so completed work is never thrown away: the journal
	// holds exactly the restored and the completed trials (a trial that
	// errors records nothing).
	if jw != nil {
		st.finalCkErr = writeCheckpoint()
	}
	st.writeFailures = writeFailures // the final write's failure included, as documented on CheckpointWriteFailures
	st.ckSpans = ckSpans

	for k, o := range outs {
		if o.err != nil {
			ref := todo[k]
			return st, fmt.Errorf("fleet: scenario %q replication %d: %w", c.Scenarios[ref.scenario].Name, ref.rep, o.err)
		}
	}
	// An interrupt that raced the last completion interrupted
	// nothing: with every owned trial done the full result stands.
	// Completion is counted over the run's ranges — a shard cares
	// only about its own, however many restored out-of-range partials
	// a journal carried in.
	doneN := owned - len(todo) + completed
	if interrupted && doneN < owned {
		if st.finalCkErr != nil {
			return st, fmt.Errorf("fleet: interrupted after %d/%d trials and the final checkpoint write failed: %w",
				doneN, owned, st.finalCkErr)
		}
		return st, &InterruptedError{Completed: doneN, Total: owned, Checkpoint: opt.CheckpointPath}
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
// cluster and builds the submission mix from rng, for the experiments
// that drain a campaign mix on their own cluster (the E4 table, the
// E16 drain). Fleet trials do not call it: a trial provisions the same
// accounts once per pooled cluster and rebuilds its mix with
// MixSpec.BuildInto into the slot's scratch.
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
	users  int    // accounts each cluster is provisioned with: "u0".."uN-1"
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

// scenarioSlot is the per-(worker, scenario) reuse state. A pooled
// cluster is provisioned with the scenario's users, and an attacked
// scenario's adversary, once and marked there, so every Reset returns
// to "cluster plus users plus adversary scenery": users holds their
// login credentials and adversary the bound accounts for every later
// trial. Nothing writes a credential's Groups: the scheduler copies
// them at Submit, and seepid clones before it adds a group. rec is the
// result record runTrial fills and returns; the next trial of the slot
// overwrites it unless the caller took it with keepRecord.
type scenarioSlot struct {
	cluster   *core.Cluster // retained across trials only when pooling
	users     []ids.Credential
	adversary *attack.Adversary // nil for an unattacked scenario
	scratch   workload.BuildScratch
	rec       *trialResult
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

// attackedTrial is an attacked scenario's trialResult, with its attack
// aggregate in the same allocation.
type attackedTrial struct {
	trialResult
	agg attack.Agg
}

// newTrialResult returns an empty one-trial record laid out for s: its
// name, its histogram, and its attack aggregate when s is attacked.
func newTrialResult(s *Scenario) *trialResult {
	var tr *trialResult
	if s.Attack != nil {
		at := &attackedTrial{}
		tr = &at.trialResult
		tr.res.Attack = &at.agg
	} else {
		tr = &trialResult{}
	}
	tr.reset(s)
	return tr
}

// reset empties the record for another trial of s, keeping its attack
// aggregate's storage.
func (tr *trialResult) reset(s *Scenario) {
	agg := tr.res.Attack
	if agg != nil {
		*agg = attack.Agg{}
	}
	tr.counts = [makespanBuckets]int64{}
	tr.hist = histogramFor(s, tr.counts[:])
	tr.res = ScenarioResult{Name: s.Name, MakespanHist: &tr.hist, Attack: agg}
}

// keepRecord lets the caller keep the record the scenario's last trial
// returned: the slot lets go of it, and its next trial allocates anew.
func (w *trialWorker) keepRecord(scenario int) {
	if slot := w.slots[scenario]; slot != nil {
		slot.rec = nil
	}
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
// the scenario — pooled and Reset to its provisioned mark, or built
// fresh and provisioned with the scenario's users — submitted the mix
// drawn from the trial's own RNG stream, drained up to the horizon,
// and summarized into a one-trial aggregate. The aggregate is the
// slot's record: the slot's next trial overwrites it unless the caller
// takes it with keepRecord first.
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
	reused := c != nil
	if reused {
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
	if !reused {
		creds := slot.users[:0]
		for u := 0; u < cs.users; u++ {
			acct, err := c.AddUser(UserName(u), "pw")
			if err != nil {
				return nil, err
			}
			creds = append(creds, acct.Cred)
		}
		slot.users = creds
		if cs.attack != nil {
			adv, err := attack.Provision(c)
			if err != nil {
				return nil, err
			}
			slot.adversary = adv
		}
		if w.pooling {
			c.MarkPristine()
		}
	}
	mix, err := s.Workload.BuildInto(&w.rng, slot.users, &slot.scratch)
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
	var att attack.Outcome
	if cs.attack != nil {
		w.rec.Begin(c.Now())
		w.attackRNG.Reseed(metrics.StreamSeed(metrics.StreamSeed(cs.stream, uint64(rep)), attack.StreamIndex))
		att = cs.attack.Run(slot.adversary, &w.attackRNG, s.Horizon)
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
	tr := slot.rec
	if tr == nil {
		tr = newTrialResult(s)
		slot.rec = tr
	} else {
		tr.reset(s)
	}
	tr.res.Replications = 1
	tr.res.Crashes, tr.res.Cofailures = crashes, cofail
	tr.res.Unfinished = c.Sched.Unfinished()
	tr.res.Util.Add(c.Sched.Utilization())
	tr.res.Makespan.Add(float64(ticks))
	tr.res.MakespanHist.Add(float64(ticks))
	if tr.res.Attack != nil {
		tr.res.Attack.AddOutcome(&att)
	}
	w.m.trialTicks.Observe(float64(ticks))
	w.rec.End(obs.PhaseAggregate, c.Now())
	return &tr.res, nil
}
