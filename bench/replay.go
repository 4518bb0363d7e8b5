package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// makespanBuckets must equal the fleet executor's histogram
// resolution; a mismatch makes the replay's bytes differ from
// fleet.Run's, which fails the traced run.
const makespanBuckets = 16

// replayStats are the work counts the replay observes.
type replayStats struct {
	steps, ff   int64 // scheduler ticks stepped and fast-forwarded
	attackSteps int64
	partials    []*fleet.ScenarioResult
}

// partialBytes is the mean JSON size of a per-trial partial, the unit
// a checkpoint sidecar stores per completed trial.
func (st replayStats) partialBytes() (float64, error) {
	total := 0
	for _, p := range st.partials {
		data, err := json.Marshal(p)
		if err != nil {
			return 0, err
		}
		total += len(data)
	}
	return ratio(float64(total), float64(len(st.partials))), nil
}

// scenarioConfig resolves a scenario's cluster configuration through
// the public calls fleet's campaign compile makes.
func scenarioConfig(s *fleet.Scenario) (core.Config, core.Topology, error) {
	prof, err := core.ProfileByName(s.Profile)
	if err != nil {
		return core.Config{}, core.Topology{}, err
	}
	topo := s.Topology
	if topo == (core.Topology{}) {
		topo = core.DefaultTopology()
	}
	opts := []core.Option{core.WithTopology(topo)}
	for _, m := range s.Ablate {
		opts = append(opts, core.Without(m))
	}
	if s.Policy != "" {
		pol, err := sched.ParsePolicy(s.Policy)
		if err != nil {
			return core.Config{}, core.Topology{}, err
		}
		opts = append(opts, core.WithMeasures(core.Measure{
			Name:    "fleet-policy-" + s.Policy,
			Summary: "pin the node-sharing policy for this scenario",
			Apply:   func(cfg *core.Config) { cfg.Policy = pol },
		}))
	}
	resolved, topo, err := core.ResolveProfile(prof, opts...)
	if err != nil {
		return core.Config{}, core.Topology{}, err
	}
	cfg, err := resolved.Config()
	return cfg, topo, err
}

// replay runs the campaign serially through the public calls a fleet
// trial makes — cluster build or Reset, AddUser, BuildInto, Submit,
// the attack, RunAll — and reduces the per-trial partials with
// ScenarioResult.Merge in trial order, recording a span around each
// call. Its result must equal fleet.Run's byte for byte.
func replay(c fleet.Campaign, seed uint64, t *tracer) (*fleet.CampaignResult, replayStats, error) {
	var st replayStats
	res := &fleet.CampaignResult{Campaign: c.Name, Seed: seed}
	var rng, attackRNG metrics.RNG
	var scratch workload.BuildScratch
	var creds []ids.Credential
	trial := 0
	for si := range c.Scenarios {
		s := &c.Scenarios[si]
		cfg, topo, err := scenarioConfig(s)
		if err != nil {
			return nil, st, err
		}
		var ca *attack.Compiled
		if s.Attack != nil {
			if ca, err = s.Attack.Compile(); err != nil {
				return nil, st, err
			}
		}
		var cl *core.Cluster
		var agg *fleet.ScenarioResult
		for rep := 0; rep < s.Replications; rep++ {
			t.setTrial(trial)
			trial++
			t.begin("run.trial")
			if cl == nil {
				t.begin("core.new")
				cl, err = core.New(cfg, topo)
				t.end(1)
			} else {
				t.begin("core.reset")
				err = cl.Reset()
				t.end(1)
			}
			if err != nil {
				return nil, st, err
			}
			trialSeed := s.TrialSeed(seed, rep)
			rng.Reseed(trialSeed)
			t.begin("ids.adduser")
			creds = creds[:0]
			for u := 0; u < s.Workload.Users; u++ {
				acct, err := cl.AddUser(fleet.UserName(u), "pw")
				if err != nil {
					return nil, st, err
				}
				creds = append(creds, acct.Cred)
			}
			t.end(int64(len(creds)))
			t.begin("workload.build")
			mix, err := s.Workload.BuildInto(&rng, creds, &scratch)
			t.end(1)
			if err != nil {
				return nil, st, err
			}
			t.begin("sched.submit")
			for i := range mix {
				if _, err := cl.Sched.Submit(mix[i].Cred, mix[i].Spec); err != nil {
					return nil, st, err
				}
			}
			t.end(int64(len(mix)))
			var out *attack.Outcome
			if ca != nil {
				t.begin("attack.execute")
				attackRNG.Reseed(metrics.StreamSeed(trialSeed, attack.StreamIndex))
				out, _, err = ca.Execute(cl, &attackRNG, s.Horizon)
				t.end(1)
				if err != nil {
					return nil, st, err
				}
				st.attackSteps += int64(out.Steps)
			}
			t.begin("sched.drain")
			from := cl.Now()
			if remaining := s.Horizon - int(from); remaining > 0 {
				cl.RunAll(remaining)
			}
			t.end(cl.Now() - from)

			t.begin("sched.observe")
			ticks := cl.Now()
			crashes, cofail := cl.Sched.Crashes()
			steps, ff := cl.Sched.Stats()
			unfinished := len(cl.Sched.Squeue(ids.RootCred()))
			util := cl.Sched.Utilization()
			t.end(1)
			st.steps += steps
			st.ff += ff

			t.begin("fleet.partial")
			hist := metrics.Histogram{Lo: 0, Hi: float64(s.Horizon), Counts: make([]int64, makespanBuckets)}
			p := &fleet.ScenarioResult{
				Name: s.Name, Replications: 1, MakespanHist: &hist,
				Crashes: crashes, Cofailures: cofail, Unfinished: unfinished,
			}
			p.Util.Add(util)
			p.Makespan.Add(float64(ticks))
			p.MakespanHist.Add(float64(ticks))
			if out != nil {
				p.Attack = attack.NewAgg()
				p.Attack.AddOutcome(out)
			}
			t.end(1)
			st.partials = append(st.partials, p)

			t.begin("fleet.merge")
			if agg == nil {
				agg = clonePartial(p)
			} else if err := agg.Merge(p); err != nil {
				return nil, st, err
			}
			t.end(1)
			t.end(1) // run.trial
		}
		t.setTrial(-1)
		res.Scenarios = append(res.Scenarios, agg)
	}
	return res, st, nil
}

// clonePartial deep-copies a partial, so the merge target never
// aliases a partial the replay keeps.
func clonePartial(p *fleet.ScenarioResult) *fleet.ScenarioResult {
	r := *p
	h := *p.MakespanHist
	h.Counts = append([]int64(nil), h.Counts...)
	r.MakespanHist = &h
	if r.Attack != nil {
		r.Attack = r.Attack.Clone()
	}
	return &r
}

// setReplayMetrics reports the replay's work counts.
func setReplayMetrics(res *result, st replayStats) error {
	pb, err := st.partialBytes()
	res.set("sched.steps", float64(st.steps), "count")
	res.set("sched.ff_ticks", float64(st.ff), "count")
	res.set("sched.ff_frac", ratio(float64(st.ff), float64(st.steps+st.ff)), "ratio")
	res.set("attack.steps", float64(st.attackSteps), "count")
	res.set("fleet.partial_bytes", pb, "B")
	return err
}

// setServiceAbsent reports zero for the per-layer metrics only the
// service workload measures.
func setServiceAbsent(res *result) {
	for _, m := range []struct{ name, unit string }{
		{"checkpoint.writes", "count"}, {"checkpoint.bytes_written", "B"}, {"checkpoint.bytes_per_trial", "B"},
		{"shard.attempts", "count"}, {"shard.overhead_frac", "ratio"}, {"shard.first_result_frac", "ratio"},
		{"fleetd.result_bytes", "B"},
	} {
		res.set(m.name, 0, m.unit)
	}
}

// traceCampaign is the traced run of an in-process campaign workload:
// an untraced fleet.Run with one worker as the reference, then the
// traced replay, whose bytes must equal the reference's.
func (w *workloadSpec) traceCampaign(e *env) (*result, error) {
	c, err := w.setupCampaign()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: 3 * c.Trials()}
	want, untraced, err := warmReference(c, e.seed, 1)
	if err != nil {
		return nil, err
	}
	if f := newChecker(w, c, e.seed).check(want); f > 0 {
		res.fail("fleet.Run output")
	}
	t := newTracer()
	t.begin("run.replay")
	got, st, err := replay(c, e.seed, t)
	t.end(1)
	if err != nil {
		return nil, err
	}
	if err := sameResult(got, want); err != nil {
		res.fail("%v", err)
	}
	p := t.fold()
	setLayerMetrics(res, p)
	if err := setReplayMetrics(res, st); err != nil {
		return nil, err
	}
	setServiceAbsent(res)
	res.set("trace.overhead_frac", float64(p.wall)/float64(untraced)-1, "ratio")
	return res, t.write(e.traceOut, os.Stderr)
}

// runReference runs the campaign with fleet.Run and returns its
// canonical bytes and wall time.
func runReference(c fleet.Campaign, seed uint64, workers int) ([]byte, time.Duration, error) {
	t0 := time.Now()
	r, err := fleet.Run(c, fleet.Options{Workers: workers, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	data, err := r.JSON()
	return data, time.Since(t0), err
}

// warmReference is runReference after one unmeasured run: a process's
// first campaign runs cold.
func warmReference(c fleet.Campaign, seed uint64, workers int) ([]byte, time.Duration, error) {
	if _, _, err := runReference(c, seed, workers); err != nil {
		return nil, 0, err
	}
	return runReference(c, seed, workers)
}

// sameResult reports whether the replay reproduced the program's
// output.
func sameResult(got *fleet.CampaignResult, want []byte) error {
	data, err := got.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("the traced replay's result differs from fleet.Run's: it is not measuring the same program")
	}
	return nil
}
