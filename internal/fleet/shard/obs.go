package shard

import (
	"repro/internal/obs"
)

// Supervision metrics follow the fleet executor's pattern (fleet's
// obs.go): handles resolve once per Supervise against an optional
// registry, and the zero-value bundle no-ops when none is wired.
// Counters are campaign-global rather than per-shard-labeled — the
// supervision loop is cold path, and fleetd aggregates across many
// campaigns with varying shard counts, where per-shard labels would
// just fragment the series.
type shardMetrics struct {
	attempts        *obs.Counter // shard attempts launched (first runs + retries)
	backoffs        *obs.Counter // retry backoffs entered after a failed attempt
	heartbeatStalls *obs.Counter // attempts killed because their journal stopped growing
	deadlineKills   *obs.Counter // attempts killed for overrunning the deadline
	degraded        *obs.Counter // shards that exhausted the retry budget
}

func newShardMetrics(r *obs.Registry) shardMetrics {
	if r == nil {
		return shardMetrics{}
	}
	return shardMetrics{
		attempts:        r.Counter("shard_attempts_total", "shard attempts launched, retries included"),
		backoffs:        r.Counter("shard_backoffs_total", "exponential backoffs entered after failed shard attempts"),
		heartbeatStalls: r.Counter("shard_heartbeat_stalls_total", "shard attempts killed because their checkpoint journal stopped growing"),
		deadlineKills:   r.Counter("shard_deadline_kills_total", "shard attempts killed for exceeding the attempt deadline"),
		degraded:        r.Counter("shard_degraded_total", "shards that exhausted their retry budget and degraded to counted failures"),
	}
}

// serviceMetrics is fleetd's own instrument bundle, always live (the
// service creates its registry unconditionally so GET /metrics has
// something to serve). Campaign lifecycle counters partition every
// admitted campaign — submitted = done + failed + drained + still
// queued/running — and the gauges track the live queue and workers.
type serviceMetrics struct {
	submitted  *obs.Counter
	done       *obs.Counter
	failed     *obs.Counter
	drained    *obs.Counter
	queueDepth *obs.Gauge
	running    *obs.Gauge
}

func newServiceMetrics(r *obs.Registry) serviceMetrics {
	return serviceMetrics{
		submitted:  r.Counter("fleetd_campaigns_submitted_total", "campaigns admitted to the queue"),
		done:       r.Counter("fleetd_campaigns_done_total", "campaigns that completed with a result"),
		failed:     r.Counter("fleetd_campaigns_failed_total", "campaigns that ended in an error"),
		drained:    r.Counter("fleetd_campaigns_drained_total", "campaigns stopped by a service drain, queued-but-unstarted ones included"),
		queueDepth: r.Gauge("fleetd_queue_depth", "campaigns waiting in the admission queue"),
		running:    r.Gauge("fleetd_campaigns_running", "campaigns currently executing"),
	}
}
