package attack

import (
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Outcome is one executed campaign: the per-trial record fleet
// aggregates into an Agg. Success means at least one NON-residual
// leak — the paper concedes the residual channels, so an attacker
// who only harvests those has not broken the separation claim.
type Outcome struct {
	Model string
	// Steps is how many campaign steps executed.
	Steps int
	// Leaks counts leaked steps, residual included; ResidualLeaks is
	// the residual share.
	Leaks         int
	ResidualLeaks int
	// Success indicates at least one non-residual leak.
	Success bool
	// StepsToFirstLeak is the 1-based index of the first
	// non-residual leaking step in campaign order; 0 = the chain
	// never broke through.
	StepsToFirstLeak int
	// Inconclusive counts steps that neither leaked nor were denied by
	// an observed mechanism (a setup failed, or a view came back empty
	// without the victim confirmed present).
	Inconclusive int
	// Detected indicates some step was denied by an enforcing
	// control — the earliest signal a defender could alert on.
	// DetectionTick is the cluster tick of the first denial (-1 when
	// nothing was denied), StartTick the campaign's first tick, so
	// DetectionTick-StartTick is the detection latency.
	Detected      bool
	DetectionTick int64
	StartTick     int64
	// TicksUsed is how many cluster ticks the campaign consumed
	// (pacing gaps plus in-step waiting), all shared with the
	// concurrently-draining mix.
	TicksUsed int64
	// StepLeaks counts non-residual leaks by step name — the E17
	// diagonal's evidence: an ablation reopens exactly its own
	// steps. ChannelLeaks counts ALL leaks (residual included) by
	// audit channel.
	StepLeaks    StepCounts
	ChannelLeaks ChannelCounts
	// Events is the campaign's tick-stamped attempts, in step order;
	// Execute records them, Run does not.
	Events []audit.Event
}

// Execute runs the campaign against a live cluster. The cluster may
// (and in fleet trials does) carry a concurrently-running legitimate
// mix: steps and pacing gaps advance the shared cluster clock, so
// the attacker and the workload interleave. rng must be the
// campaign's own stream (fleet derives it via StreamIndex from the
// trial seed) — the engine draws exactly one gap per step from it,
// regardless of cluster state, so draw counts never couple the
// attacker's stream to the mix's.
//
// maxTicks bounds the pacing gaps (a campaign never idles past the
// trial horizon); step-internal waits are small constants. Execution
// is deterministic: same cluster state, spec and rng seed — same
// Outcome, same audit.Report, byte for byte.
//
// Execute provisions a victim and an attacker on c, as Provision does,
// and records every step in the report and in Outcome.Events. Run is
// the same loop over scenery provisioned once.
func (cs *Compiled) Execute(c *core.Cluster, rng *metrics.RNG, maxTicks int) (*Outcome, *audit.Report, error) {
	ss, err := provision(c)
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{Events: make([]audit.Event, 0, len(cs.Steps))}
	rep := &audit.Report{ConfigName: c.Cfg.Name + " vs " + cs.Model, Results: make([]audit.Result, 0, len(cs.Steps))}
	cs.stepLoop(ss, rng, maxTicks, out, rep)
	return out, rep, nil
}

// Run runs the campaign, as Execute does, against the scenery adv
// provisioned, and returns only the Outcome: no report and no Events.
// It is a fleet trial's campaign.
func (cs *Compiled) Run(adv *Adversary, rng *metrics.RNG, maxTicks int) Outcome {
	var out Outcome
	cs.stepLoop(adv.bind(), rng, maxTicks, &out, nil)
	return out
}

// stepLoop is the step loop Execute and Run share. With rep set it records
// each step's result there and its event in out.Events.
func (cs *Compiled) stepLoop(ss *session, rng *metrics.RNG, maxTicks int, out *Outcome, rep *audit.Report) {
	defer ss.close()
	c := ss.c
	start := c.Now()
	out.Model, out.DetectionTick, out.StartTick = cs.Model, -1, start
	for i := range cs.Steps {
		st := &cs.Steps[i]
		// Lie low for 1..Gap ticks while the mix keeps draining. The
		// draw happens unconditionally — one per step — so the
		// attacker stream's consumption is a function of the spec
		// alone; only the *advance* is budget-capped.
		gap := 1 + rng.Intn(cs.Gap)
		for g := 0; g < gap && c.Now()-start < int64(maxTicks); g++ {
			c.Step()
		}
		res := st.run(ss, st.Name)
		if rep != nil {
			rep.Results = append(rep.Results, res)
			out.Events = append(out.Events, audit.Event{
				Tick: c.Now(), Step: st.Name, Channel: st.Channel,
				Residual: st.Residual(), Verdict: res.Verdict, Detail: res.Detail,
			})
		}
		out.Steps++
		if res.Verdict == audit.Leaked {
			out.Leaks++
			out.ChannelLeaks[st.channelIndex]++
			if st.Residual() {
				out.ResidualLeaks++
			} else {
				out.StepLeaks[st.leakIndex]++
				if !out.Success {
					out.Success = true
					out.StepsToFirstLeak = i + 1
				}
			}
		} else if res.Verdict == audit.Inconclusive {
			out.Inconclusive++
		} else if !out.Detected {
			out.Detected = true
			out.DetectionTick = c.Now()
		}
	}
	out.TicksUsed = c.Now() - start
}
