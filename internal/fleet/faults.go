package fleet

// Chaos injection: a deterministic fault plan threaded through the
// executor behind a no-op default (a nil *FaultPlan compiles to a nil
// injector whose every hook is a no-op). Faults are data — authored
// as JSON for `fleetrun -chaos plan.json` or built literally in tests
// — and keyed by the same (scenario name, replication index,
// attempt) coordinates as the trial RNG streams, so an injected
// failure fires at exactly the same trial on every run, worker count
// and completion order notwithstanding. The harness exists to gate
// the failure model's promises: an injected panic must be retried
// without perturbing any other trial's bytes, an injected checkpoint
// write failure must not kill the campaign the checkpoint protects,
// and a delayed worker must change wall-clock only.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Fault points inside a trial.
const (
	// PointBegin fires at the top of the trial, before the pooled
	// cluster is acquired or reset.
	PointBegin = "begin"
	// PointSubmit fires after the trial's jobs are submitted and
	// before the drain: the cluster is dirty, so recovery must
	// quarantine and rebuild it. The default, because it exercises
	// the strongest obligation.
	PointSubmit = "submit"
)

// PanicFault panics a specific trial at a specific point.
type PanicFault struct {
	Scenario    string `json:"scenario"`
	Replication int    `json:"replication"`
	// Attempts is how many consecutive attempts panic (default 1): a
	// value within the retry budget exercises recovery, a larger one
	// forces terminal degradation.
	Attempts int `json:"attempts,omitempty"`
	// Point is where in the trial the panic fires (PointBegin or
	// PointSubmit; empty means PointSubmit).
	Point string `json:"point,omitempty"`
}

// WorkerDelay sleeps a worker before every trial it runs — wall-clock
// only, never results. Used to force out-of-order completion in the
// determinism gates and to stretch a run so an external SIGKILL lands
// mid-campaign.
type WorkerDelay struct {
	Worker     int `json:"worker"`
	PerTrialMS int `json:"per_trial_ms"`
}

// Shard fault modes (ShardFault.Mode).
const (
	// ShardKill dies abruptly — no final checkpoint, no drain — after
	// AfterTrials new completions: the deterministic stand-in for a
	// SIGKILLed shard worker. Under RunShard with a Die hook (the
	// re-exec'd fleetrun sets one) the death is a literal self-SIGKILL;
	// without one the run stops recording, drains in flight and
	// returns ErrShardKilled.
	ShardKill = "kill"
	// ShardBlackhole wedges the shard after AfterTrials new
	// completions: its checkpoint journal stops growing but the
	// process stays alive and silent until killed — the supervisor
	// must detect it by heartbeat deadline, not by exit.
	ShardBlackhole = "blackhole"
	// ShardSlow sleeps every worker DelayMS per trial — wall-clock
	// only, never results. A slow shard whose journal still grows must
	// NOT be declared dead; this mode exists to prove that.
	ShardSlow = "slow"
)

// ShardFault is a shard-scoped fault, active only under RunShard (the
// plain Run executor has no shard identity and ignores them). Faults
// are keyed by (shard index, supervisor attempt): by default only the
// first attempt is sabotaged, so a retried shard recovers and the
// merged bytes stay clean; Attempts larger than the supervisor's
// retry budget forces terminal degradation instead.
type ShardFault struct {
	Shard int    `json:"shard"`
	Mode  string `json:"mode"`
	// AfterTrials arms kill/blackhole after this many trials complete
	// in the attempt (new completions, not restored ones) — and after
	// their checkpoint write, so resume sees exactly this many.
	AfterTrials int `json:"after_trials,omitempty"`
	// Attempts is how many consecutive supervisor attempts the fault
	// fires on (default 1).
	Attempts int `json:"attempts,omitempty"`
	// DelayMS is the per-trial sleep of ShardSlow.
	DelayMS int `json:"delay_ms,omitempty"`
}

// FaultPlan is the declarative chaos schedule a run executes against.
type FaultPlan struct {
	Panics []PanicFault `json:"panics,omitempty"`
	// CheckpointWrites lists 1-based checkpoint-write indices that
	// fail with ErrInjectedCheckpointFailure. Periodic and final
	// writes share the counter.
	CheckpointWrites []int         `json:"checkpoint_writes,omitempty"`
	Delays           []WorkerDelay `json:"delays,omitempty"`
	// Shards lists shard-scoped faults (kill, blackhole, slow). Only
	// RunShard consults them; the supervisor validates shard indices
	// against its shard count.
	Shards []ShardFault `json:"shards,omitempty"`
	// KillAfterTrials interrupts the run — exactly like
	// Options.Interrupt firing — after this many new trials: only
	// that many are queued, so exactly that many complete, and the
	// run ends interrupted. The deterministic stand-in for a
	// mid-campaign kill in the resume gates. 0 means never; a value
	// >= the remaining trial count never fires.
	KillAfterTrials int `json:"kill_after_trials,omitempty"`
}

// ErrInjectedCheckpointFailure is the error injected checkpoint
// writes fail with, so tests can tell chaos from real I/O errors.
var ErrInjectedCheckpointFailure = errors.New("fleet: injected checkpoint write failure")

// Validate rejects plans that name trials the campaign does not have
// — a typoed scenario must fail loudly, not silently inject nothing.
func (p *FaultPlan) Validate(c Campaign) error {
	reps := make(map[string]int, len(c.Scenarios))
	for _, s := range c.Scenarios {
		reps[s.Name] = s.Replications
	}
	for _, f := range p.Panics {
		n, ok := reps[f.Scenario]
		if !ok {
			return fmt.Errorf("fleet: fault plan panics unknown scenario %q", f.Scenario)
		}
		if f.Replication < 0 || f.Replication >= n {
			return fmt.Errorf("fleet: fault plan panics %s replication %d outside [0, %d)", f.Scenario, f.Replication, n)
		}
		if f.Attempts < 0 {
			return fmt.Errorf("fleet: fault plan: negative panic attempts %d", f.Attempts)
		}
		switch f.Point {
		case "", PointBegin, PointSubmit:
		default:
			return fmt.Errorf("fleet: fault plan: unknown panic point %q (have %q, %q)", f.Point, PointBegin, PointSubmit)
		}
	}
	for _, w := range p.CheckpointWrites {
		if w < 1 {
			return fmt.Errorf("fleet: fault plan: checkpoint write indices are 1-based (got %d)", w)
		}
	}
	for _, d := range p.Delays {
		if d.Worker < 0 || d.PerTrialMS < 0 {
			return fmt.Errorf("fleet: fault plan: negative worker %d or delay %dms", d.Worker, d.PerTrialMS)
		}
	}
	if p.KillAfterTrials < 0 {
		return fmt.Errorf("fleet: fault plan: negative kill_after_trials %d", p.KillAfterTrials)
	}
	for _, sf := range p.Shards {
		if sf.Shard < 0 {
			return fmt.Errorf("fleet: fault plan: negative shard index %d", sf.Shard)
		}
		if sf.Attempts < 0 {
			return fmt.Errorf("fleet: fault plan: negative shard fault attempts %d", sf.Attempts)
		}
		switch sf.Mode {
		case ShardKill, ShardBlackhole:
			if sf.AfterTrials < 1 {
				return fmt.Errorf("fleet: fault plan: shard %d %s fault needs after_trials >= 1 (got %d)", sf.Shard, sf.Mode, sf.AfterTrials)
			}
		case ShardSlow:
			if sf.DelayMS < 0 {
				return fmt.Errorf("fleet: fault plan: shard %d slow fault has negative delay %dms", sf.Shard, sf.DelayMS)
			}
		default:
			return fmt.Errorf("fleet: fault plan: unknown shard fault mode %q (have %q, %q, %q)", sf.Mode, ShardKill, ShardBlackhole, ShardSlow)
		}
	}
	return nil
}

// DecodeFaultPlan reads a plan from JSON (the `fleetrun -chaos`
// file). Unknown fields are an error, like campaign files.
func DecodeFaultPlan(r io.Reader) (*FaultPlan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p FaultPlan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fleet: decoding fault plan: %w", err)
	}
	return &p, nil
}

type panicKey struct {
	scenario string
	rep      int
	point    string
}

// faultInjector is the compiled, read-only plan. Every method is
// nil-receiver-safe (the no-op default) and the maps are never
// mutated after compile, so workers consult it without locks.
type faultInjector struct {
	panics    map[panicKey]int // -> number of attempts that panic
	ckptFails map[int]bool
	delays    map[int]time.Duration
	killAfter int
	// Shard-scoped faults, armed only when compileFaults sees a
	// ShardRun whose (index, attempt) a plan entry matches.
	shardKillAt  int // kill abruptly after this many new completions (0 = never)
	shardWedgeAt int // blackhole after this many new completions (0 = never)
	shardSlow    time.Duration
}

// compileFaults validates the plan against the campaign and indexes
// it for the executor. A nil plan compiles to a nil injector. sh is
// the shard identity of a RunShard invocation (nil under plain Run):
// shard faults arm only when their (shard, attempt) matches it.
func compileFaults(p *FaultPlan, c Campaign, sh *ShardRun) (*faultInjector, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	inj := &faultInjector{
		panics:    make(map[panicKey]int, len(p.Panics)),
		ckptFails: make(map[int]bool, len(p.CheckpointWrites)),
		delays:    make(map[int]time.Duration, len(p.Delays)),
		killAfter: p.KillAfterTrials,
	}
	for _, f := range p.Panics {
		attempts := f.Attempts
		if attempts == 0 {
			attempts = 1
		}
		point := f.Point
		if point == "" {
			point = PointSubmit
		}
		inj.panics[panicKey{f.Scenario, f.Replication, point}] = attempts
	}
	for _, w := range p.CheckpointWrites {
		inj.ckptFails[w] = true
	}
	for _, d := range p.Delays {
		inj.delays[d.Worker] = time.Duration(d.PerTrialMS) * time.Millisecond
	}
	if sh != nil {
		for _, sf := range p.Shards {
			attempts := sf.Attempts
			if attempts == 0 {
				attempts = 1
			}
			if sf.Shard != sh.Index || sh.Attempt > attempts {
				continue
			}
			switch sf.Mode {
			case ShardKill:
				inj.shardKillAt = sf.AfterTrials
			case ShardBlackhole:
				inj.shardWedgeAt = sf.AfterTrials
			case ShardSlow:
				inj.shardSlow = time.Duration(sf.DelayMS) * time.Millisecond
			}
		}
	}
	return inj, nil
}

// hitPoint panics iff the plan schedules this (scenario, replication,
// point) to panic on this attempt. Called from inside runTrial so the
// injected failure traverses the real recover/quarantine/retry path.
func (f *faultInjector) hitPoint(scenario string, rep, attempt int, point string) {
	if f == nil {
		return
	}
	if n := f.panics[panicKey{scenario, rep, point}]; n > 0 && attempt <= n {
		panic(fmt.Sprintf("fleet chaos: injected panic at %s (scenario %q replication %d attempt %d)", point, scenario, rep, attempt))
	}
}

// checkpointWriteErr fails the write-th checkpoint write if planned.
func (f *faultInjector) checkpointWriteErr(write int) error {
	if f == nil || !f.ckptFails[write] {
		return nil
	}
	return fmt.Errorf("%w (write %d)", ErrInjectedCheckpointFailure, write)
}

// delayWorker sleeps if the plan delays this worker.
func (f *faultInjector) delayWorker(worker int) {
	if f == nil {
		return
	}
	if d := f.delays[worker]; d > 0 {
		time.Sleep(d)
	}
}

// killAfterTrials returns the plan's kill threshold (0 = never).
func (f *faultInjector) killAfterTrials() int {
	if f == nil {
		return 0
	}
	return f.killAfter
}

// delayShardTrial sleeps every worker per trial when a slow-shard
// fault is armed (wall-clock only, never results).
func (f *faultInjector) delayShardTrial() {
	if f == nil {
		return
	}
	if f.shardSlow > 0 {
		time.Sleep(f.shardSlow)
	}
}

// shardFaultAt reports the armed shard fault firing at the n-th new
// completion of this attempt ("" = none). Kill wins a tie: an abrupt
// death subsumes a wedge.
func (f *faultInjector) shardFaultAt(n int) string {
	if f == nil {
		return ""
	}
	if f.shardKillAt > 0 && n == f.shardKillAt {
		return ShardKill
	}
	if f.shardWedgeAt > 0 && n == f.shardWedgeAt {
		return ShardBlackhole
	}
	return ""
}
