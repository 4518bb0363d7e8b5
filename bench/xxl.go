package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// xxlHorizon bounds each xxl drain; the mix needs a handful of ticks.
const xxlHorizon = 100000

// xxlOutcome is what an xxl trial produces: the output check covers
// every field.
type xxlOutcome struct {
	Ticks      int64
	Util       float64
	Crashes    int
	Cofailures int
	Unfinished int
}

// xxlRun is one xxl cluster with its reusable trial buffers.
type xxlRun struct {
	w       *workloadSpec
	seed    uint64
	c       *core.Cluster
	rng     metrics.RNG
	scratch workload.BuildScratch
	creds   []ids.Credential
	st      replayStats
}

func (w *workloadSpec) newXXL(seed uint64, t *tracer) (*xxlRun, error) {
	topo := core.Topology{ComputeNodes: w.nodes, LoginNodes: 2, CoresPerNode: 16, MemPerNode: 1 << 30, GPUsPerNode: 2}
	t.begin("core.new")
	c, err := core.New(core.Enhanced(), topo)
	t.end(1)
	if err != nil {
		return nil, err
	}
	return &xxlRun{w: w, seed: seed, c: c}, nil
}

// mix is the active set's job mix; each trial input draws its own
// submission stream from it.
func (x *xxlRun) mix() workload.MixSpec {
	return workload.MixSpec{Users: x.w.active, JobsPerUser: 4, MinCores: 1, MaxCores: 16, MinDur: 1, MaxDur: 4, MemB: 1 << 20}
}

// trial mirrors BenchmarkXXLTrial: Reset, register the whole
// population, provision the active set, submit a seed-drawn mix and
// drain it.
func (x *xxlRun) trial(input int, t *tracer) (xxlOutcome, error) {
	c := x.c
	t.begin("core.reset")
	err := c.Reset()
	t.end(1)
	if err != nil {
		return xxlOutcome{}, err
	}
	t.begin("ids.register")
	for u := 0; u < x.w.users; u++ {
		if _, err := c.Registry.Register(fleet.UserName(u)); err != nil {
			return xxlOutcome{}, err
		}
	}
	t.end(int64(x.w.users))
	t.begin("ids.adduser")
	x.creds = x.creds[:0]
	for a := 0; a < x.w.active; a++ {
		acct, err := c.AddUser(fmt.Sprintf("xxl-active%d", a), "pw")
		if err != nil {
			return xxlOutcome{}, err
		}
		x.creds = append(x.creds, acct.Cred)
	}
	t.end(int64(x.w.active))
	x.rng.Reseed(metrics.StreamSeed(x.seed, uint64(input)))
	t.begin("workload.build")
	subs, err := x.mix().BuildInto(&x.rng, x.creds, &x.scratch)
	t.end(1)
	if err != nil {
		return xxlOutcome{}, err
	}
	t.begin("sched.submit")
	for i := range subs {
		if _, err := c.Sched.Submit(subs[i].Cred, subs[i].Spec); err != nil {
			return xxlOutcome{}, err
		}
	}
	t.end(int64(len(subs)))
	t.begin("sched.drain")
	ticks := c.RunAll(xxlHorizon)
	t.end(int64(ticks))
	t.begin("sched.observe")
	o := xxlOutcome{Ticks: c.Now(), Util: c.Sched.Utilization(), Unfinished: len(c.Sched.Squeue(ids.RootCred()))}
	o.Crashes, o.Cofailures = c.Sched.Crashes()
	steps, ff := c.Sched.Stats()
	t.end(1)
	x.st.steps += steps
	x.st.ff += ff
	return o, nil
}

// xxlChecker requires every trial of an input to repeat that input's
// first outcome, and the outcomes of all inputs to hash to the pin at
// the pinned seed.
type xxlChecker struct {
	first []*xxlOutcome
	pin   string
}

func newXXLChecker(w *workloadSpec, seed uint64) *xxlChecker {
	ck := &xxlChecker{first: make([]*xxlOutcome, w.inputs)}
	if seed == pinSeed {
		ck.pin = w.pin
	}
	return ck
}

// check reports whether the trial's outcome is correct so far.
func (ck *xxlChecker) check(input int, o xxlOutcome) bool {
	if ck.first[input] == nil {
		ck.first[input] = &o
		return true
	}
	if *ck.first[input] != o {
		fmt.Fprintf(os.Stderr, "bench: xxl input %d: outcome %+v, first %+v\n", input, o, *ck.first[input])
		return false
	}
	return true
}

// digest hashes the first outcome of every input, in input order.
func (ck *xxlChecker) digest() string {
	h := sha256.New()
	for i, o := range ck.first {
		if o == nil {
			return fmt.Sprintf("input %d never ran", i)
		}
		fmt.Fprintf(h, "%d %d %v %d %d %d\n", i, o.Ticks, o.Util, o.Crashes, o.Cofailures, o.Unfinished)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// final checks the digest; false fails the run.
func (ck *xxlChecker) final() bool {
	if ck.pin != "" && ck.digest() != ck.pin {
		fmt.Fprintf(os.Stderr, "bench: xxl digest %s, pinned %s\n", ck.digest(), ck.pin)
		return false
	}
	return true
}

// measureXXL: set-up is core.New plus the first trial, which grows the
// registry's pools; the window then runs trials closed-loop, cycling
// through the inputs.
func (w *workloadSpec) measureXXL(e *env) (*result, error) {
	res := &result{Correct: true}
	ck := newXXLChecker(w, e.seed)
	var x *xxlRun
	trial := func(input int) error {
		o, err := x.trial(input, nil)
		if err != nil {
			return err
		}
		res.Attempted++
		if !ck.check(input, o) {
			res.Failed++
		}
		return nil
	}
	var setups []float64
	for i := 0; i < xxlSetups; i++ {
		x = nil // the previous cluster is garbage before the next build
		runtime.GC()
		t0 := time.Now()
		var err error
		if x, err = w.newXXL(e.seed, nil); err != nil {
			return nil, err
		}
		if err := trial(0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	n := 0
	s, err := window(e.window, func() (time.Duration, error) {
		t0 := time.Now()
		err := trial(n % w.inputs)
		n++
		return time.Since(t0), err
	})
	for ; err == nil && n < w.inputs; n++ { // every input must run once
		err = trial(n)
	}
	if err != nil {
		res.fail("%v", err)
	} else if !ck.final() {
		res.fail("xxl digest")
	}
	res.Correct = res.Correct && res.Failed == 0
	setEndToEnd(res, median(setups), 1, s, median(s.rssMB), liveHeapMB(x.c))
	return res, nil
}

// traceXXL builds the cluster, runs one untraced warm-up trial, then
// every input untraced (the overhead reference) and traced; both
// passes must produce the same outcomes.
func (w *workloadSpec) traceXXL(e *env) (*result, error) {
	res := &result{Correct: true}
	ck := newXXLChecker(w, e.seed)
	t := newTracer()
	t.begin("run.build")
	x, err := w.newXXL(e.seed, t)
	t.end(1)
	if err != nil {
		return nil, err
	}
	// pass runs every input once; the first pass is the untraced
	// reference, the second the traced one.
	pass := func(t *tracer) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < w.inputs; i++ {
			t.setTrial(i)
			t.begin("run.trial")
			o, err := x.trial(i, t)
			t.end(1)
			if err != nil {
				return 0, err
			}
			if !ck.check(i, o) {
				res.Failed++
			}
		}
		t.setTrial(-1)
		return time.Since(t0), nil
	}
	o, err := x.trial(0, nil) // warm-up: grows the registry's pools
	if err != nil {
		return nil, err
	}
	if !ck.check(0, o) {
		res.Failed++
	}
	untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	x.st = replayStats{}
	traced, err := pass(t)
	if err != nil {
		return nil, err
	}
	res.Attempted = 1 + 2*w.inputs
	if res.Failed > 0 || !ck.final() {
		res.fail("xxl traced outcomes")
	}
	p := t.fold()
	setLayerMetrics(res, p)
	if err := setReplayMetrics(res, x.st); err != nil {
		return nil, err
	}
	setServiceAbsent(res)
	res.set("trace.overhead_frac", float64(traced)/float64(untraced)-1, "ratio")
	return res, t.write(e.traceOut, os.Stderr)
}
