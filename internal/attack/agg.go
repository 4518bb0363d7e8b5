package attack

import (
	"fmt"

	"repro/internal/metrics"
)

// Agg is the mergeable campaign aggregate — fleet's per-scenario
// attack statistics, built from fixed-size per-trial Outcomes the
// same way ScenarioResult accumulates the drain metrics. Field order
// is the canonical JSON layout; the maps marshal with sorted keys
// (encoding/json's contract), so Agg JSON is deterministic and the
// fleet byte-identity guarantees extend to attacked campaigns.
type Agg struct {
	// Trials counts successful trials aggregated here; a degraded
	// (panic-failed) trial contributes an empty Agg with Trials 0.
	Trials int `json:"trials"`
	// Successes counts trials with at least one non-residual leak;
	// Detected counts trials where some step was denied.
	Successes int `json:"successes"`
	Detected  int `json:"detected"`
	// ResidualLeaks sums residual-channel leaks over trials.
	ResidualLeaks int `json:"residual_leaks"`
	// Inconclusive sums inconclusive steps over trials; absent from the
	// JSON while zero.
	Inconclusive int `json:"inconclusive,omitempty"`
	// StepsToFirstLeak accumulates, over successful trials only, the
	// 1-based index of the first non-residual leaking step.
	StepsToFirstLeak metrics.Acc `json:"steps_to_first_leak"`
	// DetectionLatency accumulates, over detected trials only, the
	// tick distance from campaign start to the first denial.
	DetectionLatency metrics.Acc `json:"detection_latency"`
	// StepLeaks counts non-residual leaks by step name;
	// ChannelLeaks counts all leaks (residual included) by channel.
	StepLeaks    map[string]int `json:"step_leaks"`
	ChannelLeaks map[string]int `json:"channel_leaks"`
}

// NewAgg returns an empty aggregate with both maps materialized, so
// an attack scenario's JSON shape is identical whether or not any
// step ever leaked (`{}`, not `null`).
func NewAgg() *Agg {
	return &Agg{StepLeaks: make(map[string]int), ChannelLeaks: make(map[string]int)}
}

// AddOutcome folds one trial in.
func (a *Agg) AddOutcome(o *Outcome) {
	a.Trials++
	if o.Success {
		a.Successes++
		a.StepsToFirstLeak.Add(float64(o.StepsToFirstLeak))
	}
	if o.Detected {
		a.Detected++
		a.DetectionLatency.Add(float64(o.DetectionTick - o.StartTick))
	}
	a.ResidualLeaks += o.ResidualLeaks
	a.Inconclusive += o.Inconclusive
	for k, v := range o.StepLeaks {
		a.StepLeaks[k] += v
	}
	for k, v := range o.ChannelLeaks {
		a.ChannelLeaks[k] += v
	}
}

// Merge folds another aggregate of the same scenario in. Like
// ScenarioResult.Merge, call order is the caller's determinism
// contract (fleet merges in trial-index order).
func (a *Agg) Merge(o *Agg) {
	a.Trials += o.Trials
	a.Successes += o.Successes
	a.Detected += o.Detected
	a.ResidualLeaks += o.ResidualLeaks
	a.Inconclusive += o.Inconclusive
	a.StepsToFirstLeak.Merge(o.StepsToFirstLeak)
	a.DetectionLatency.Merge(o.DetectionLatency)
	if a.StepLeaks == nil {
		a.StepLeaks = make(map[string]int)
	}
	if a.ChannelLeaks == nil {
		a.ChannelLeaks = make(map[string]int)
	}
	for k, v := range o.StepLeaks {
		a.StepLeaks[k] += v
	}
	for k, v := range o.ChannelLeaks {
		a.ChannelLeaks[k] += v
	}
}

// Clone deep-copies the aggregate (the maps are its reference
// fields) so checkpoint-restored partials never alias merge targets.
func (a *Agg) Clone() *Agg {
	c := *a
	c.StepLeaks = make(map[string]int, len(a.StepLeaks))
	for k, v := range a.StepLeaks {
		c.StepLeaks[k] = v
	}
	c.ChannelLeaks = make(map[string]int, len(a.ChannelLeaks))
	for k, v := range a.ChannelLeaks {
		c.ChannelLeaks[k] = v
	}
	return &c
}

// Summary renders the aggregate as a compact table cell:
// "2/3 leak@1.0 det@4.5".
func (a *Agg) Summary() string {
	s := fmt.Sprintf("%d/%d", a.Successes, a.Trials)
	if a.Successes > 0 {
		s += fmt.Sprintf(" leak@%.1f", a.StepsToFirstLeak.Mean)
	}
	if a.Detected > 0 {
		s += fmt.Sprintf(" det@%.1f", a.DetectionLatency.Mean)
	}
	return s
}
