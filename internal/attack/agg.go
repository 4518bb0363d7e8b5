package attack

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/audit"
	"repro/internal/metrics"
)

// Agg is the mergeable campaign aggregate — fleet's per-scenario
// attack statistics, built from fixed-size per-trial Outcomes the
// same way ScenarioResult accumulates the drain metrics. Field order
// is the canonical JSON layout; the leak counts marshal as objects
// with sorted keys, so Agg JSON is deterministic and the fleet
// byte-identity guarantees extend to attacked campaigns.
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
	StepLeaks    StepCounts    `json:"step_leaks"`
	ChannelLeaks ChannelCounts `json:"channel_leaks"`
}

// StepCounts counts by step name, indexed by the name's position in
// the sorted registry. Its JSON is an object of the nonzero counts
// with sorted keys, `{}` when there are none: the shape a map of them
// marshals to.
type StepCounts [len(stepRegistry)]int

// channelNames is every audit channel, sorted: ChannelCounts' index.
var channelNames = [...]string{
	string(audit.ChanAbstract), string(audit.ChanContainer), string(audit.ChanFS),
	string(audit.ChanGPU), string(audit.ChanNetwork), string(audit.ChanPortal),
	string(audit.ChanProcess), string(audit.ChanRDMACM), string(audit.ChanScheduler),
	string(audit.ChanTmpNames),
}

// ChannelCounts counts by audit channel, indexed like channelNames,
// with StepCounts' JSON shape.
type ChannelCounts [len(channelNames)]int

// Names returns the steps with a nonzero count, sorted.
func (c *StepCounts) Names() []string {
	var names []string
	for i, n := range c {
		if n != 0 {
			names = append(names, stepNames[i])
		}
	}
	return names
}

func (c StepCounts) MarshalJSON() ([]byte, error) { return countsJSON(stepNames, c[:]), nil }

func (c *StepCounts) UnmarshalJSON(data []byte) error { return parseCounts(data, stepNames, c[:]) }

func (c ChannelCounts) MarshalJSON() ([]byte, error) { return countsJSON(channelNames[:], c[:]), nil }

func (c *ChannelCounts) UnmarshalJSON(data []byte) error {
	return parseCounts(data, channelNames[:], c[:])
}

// countsJSON renders the nonzero counts as a JSON object keyed by
// names, which are sorted.
func countsJSON(names []string, counts []int) []byte {
	b := []byte{'{'}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, names[i])
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, '}')
}

// parseCounts decodes a JSON object of counts keyed by names, which
// are sorted, into counts. A key outside names is an error: no trial
// counts it.
func parseCounts(data []byte, names []string, counts []int) error {
	var m map[string]int
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	clear(counts)
	for k, n := range m {
		i, ok := slices.BinarySearch(names, k)
		if !ok {
			return fmt.Errorf("attack: no leak count is kept for %q", k)
		}
		counts[i] = n
	}
	return nil
}

// NewAgg returns an empty aggregate.
func NewAgg() *Agg { return &Agg{} }

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
	a.addLeaks(&o.StepLeaks, &o.ChannelLeaks)
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
	a.addLeaks(&o.StepLeaks, &o.ChannelLeaks)
}

func (a *Agg) addLeaks(steps *StepCounts, channels *ChannelCounts) {
	for i, n := range steps {
		a.StepLeaks[i] += n
	}
	for i, n := range channels {
		a.ChannelLeaks[i] += n
	}
}

// Clone copies the aggregate; it holds no reference fields.
func (a *Agg) Clone() *Agg {
	c := *a
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
