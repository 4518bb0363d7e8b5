package fleet

import (
	"repro/internal/obs"
)

// The executor's observability wiring. All instrumentation funnels
// through runMetrics, a bundle of pre-registered obs handles: the
// handles are resolved ONCE per execute() — never on the trial hot
// path — and the zero value (every handle nil) is the disabled mode,
// where each update is a nil-check no-op. That split is what lets the
// hot path carry its instrumentation unconditionally while
// BenchmarkTrialLifecycle's allocs/trial stay flat whether or not a
// registry is wired (the obs package pins the handles' zero-alloc
// guarantee; TestObsNeutralByteIdentity pins that enabling them
// changes no output byte). Workers update the per-trial counters
// (pool, panics, sched, attack, trial ticks) as they run; execute's
// recording loop updates the completion and checkpoint ones. The
// handles are atomic, so neither side takes a lock.

// TrialTickBuckets is the fixed bucket layout of the
// fleet_trial_ticks histogram: makespan in simulation ticks. Fixed at
// registration so per-shard registries merge (same rule as the
// makespan histogram in ScenarioResult).
var TrialTickBuckets = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// runMetrics is the campaign executor's instrument bundle. Counter
// semantics are documented in DESIGN.md §11's metric catalogue.
type runMetrics struct {
	trialsCompleted    *obs.Counter // new trials completed this run
	trialsRestored     *obs.Counter // trials restored from a resume checkpoint
	trialPanics        *obs.Counter // trial attempts that panicked
	trialRetries       *obs.Counter // panicking attempts re-run under the identical seed
	trialsDegraded     *obs.Counter // trials that exhausted the retry budget
	poolHits           *obs.Counter // trials served by a pooled cluster via Reset
	poolBuilds         *obs.Counter // trials that built a cluster from scratch
	ckWrites           *obs.Counter // checkpoint write attempts (periodic + final)
	ckWriteFailures    *obs.Counter // checkpoint writes that failed (tolerated)
	ckBytes            *obs.Counter // bytes of every journal create and append
	schedSteps         *obs.Counter // real scheduler ticks executed across trials
	schedFastForwarded *obs.Counter // event-free ticks the analytic fast-forward skipped
	attackSteps        *obs.Counter // adversary campaign steps executed
	trialTicks         *obs.Histogram
}

// newRunMetrics resolves the bundle against a registry; a nil
// registry yields the all-nil (disabled) bundle.
func newRunMetrics(r *obs.Registry) runMetrics {
	if r == nil {
		return runMetrics{}
	}
	return runMetrics{
		trialsCompleted:    r.Counter("fleet_trials_completed_total", "campaign trials completed by this process (restored trials excluded; see fleet_trials_restored_total)"),
		trialsRestored:     r.Counter("fleet_trials_restored_total", "trials restored from a resume checkpoint instead of re-executed"),
		trialPanics:        r.Counter("fleet_trial_panics_total", "trial attempts that panicked and were isolated"),
		trialRetries:       r.Counter("fleet_trial_retries_total", "panicking trial attempts retried under the identical stream seed"),
		trialsDegraded:     r.Counter("fleet_trials_degraded_total", "trials that exhausted the retry budget and degraded to counted failures"),
		poolHits:           r.Counter("fleet_pool_hits_total", "trials served by a pooled per-worker cluster via Reset"),
		poolBuilds:         r.Counter("fleet_pool_builds_total", "trials that built a cluster from scratch"),
		ckWrites:           r.Counter("fleet_checkpoint_writes_total", "checkpoint journal write attempts (periodic and final)"),
		ckWriteFailures:    r.Counter("fleet_checkpoint_write_failures_total", "checkpoint writes that failed and were retried at the next interval"),
		ckBytes:            r.Counter("fleet_checkpoint_bytes_total", "bytes written to checkpoint journals, creates and appends"),
		schedSteps:         r.Counter("fleet_sched_steps_total", "real scheduler ticks executed inside trials"),
		schedFastForwarded: r.Counter("fleet_sched_fastforwarded_ticks_total", "event-free ticks the scheduler's analytic fast-forward skipped inside trials"),
		attackSteps:        r.Counter("fleet_attack_steps_total", "adversary campaign steps executed inside attacked trials"),
		trialTicks:         r.HistogramMetric("fleet_trial_ticks", "per-trial makespan in simulation ticks", TrialTickBuckets),
	}
}
