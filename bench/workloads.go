package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

// workers is the in-process fleet worker count: one per core of the
// 2-core machine the baseline was recorded on, matching the service's
// two single-worker shards.
const workers = 2

// pinSeed is the seed the pinned output digests were recorded at.
const pinSeed = 42

// workloadSpec is one benchmark input set. Sizes are fields so the smoke
// test can shrink them; the values in workloads below are the
// benchmark's.
type workloadSpec struct {
	name string
	// Campaign workloads: a preset with its replication count
	// overridden. service runs the campaign through fleetd.
	preset  string
	reps    int
	service bool
	// xxl: one cluster, a registered population and a sparse active
	// set; trials cycle through `inputs` seed-drawn mixes.
	nodes, users, active, inputs int
	// pin is the SHA-256 of the output at pinSeed and these sizes.
	pin string
}

// workloads are the benchmark's inputs. Why each was chosen is in
// BENCHMARK.json and README.md.
var workloads = []*workloadSpec{
	{name: "drain", preset: fleet.PresetE4PolicyGrid, reps: 250,
		pin: "30407ee2d8671dc65d16879d64de1da76e5277b646f26c87dcca62eaebee640c"},
	{name: "redteam", preset: fleet.PresetE17RedTeam, reps: 200,
		pin: "eec10ca325c13309ba66154d4c508c96335abf63d070dde9be152a8882cf768d"},
	{name: "xxl", nodes: 10000, users: 1000000, active: 64, inputs: 8,
		pin: "deee6df1958e68098c02ed425a1950833391b84a0df9de46d7b629940e4121e1"},
	{name: "service", preset: fleet.PresetE16AblationDrain, reps: 30, service: true,
		pin: "b018006a236fe93d3f994d5294ae15884f5fa08cc844142715a5fa7af0e9d824"},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// env is what one workload process runs with.
type env struct {
	seed     uint64
	window   time.Duration
	dir      string // scratch directory: sidecars, fleetd working set
	traceOut string // NDJSON span file of a traced run
	// service only: how to start a campaign service, and the canonical
	// result bytes of an in-process fleet.Run of the same campaign.
	start    starter
	expected []byte
}

// Set-up repetitions; setup_s is their median.
const (
	campaignSetups = 25
	serviceSetups  = 15
	xxlSetups      = 5
)

// minIterations keeps a median meaningful when the window is short.
const minIterations = 3

func (w *workloadSpec) measure(e *env) (*result, error) {
	switch {
	case w.service:
		return w.measureService(e)
	case w.preset != "":
		return w.measureCampaign(e)
	default:
		return w.measureXXL(e)
	}
}

func (w *workloadSpec) traced(e *env) (*result, error) {
	switch {
	case w.service:
		return w.traceService(e)
	case w.preset != "":
		return w.traceCampaign(e)
	default:
		return w.traceXXL(e)
	}
}

// campaignJSON generates the workload's campaign file: the preset with
// every scenario's replication count set to w.reps.
func (w *workloadSpec) campaignJSON() ([]byte, error) {
	c, err := fleet.PresetByName(w.preset)
	if err != nil {
		return nil, err
	}
	for i := range c.Scenarios {
		c.Scenarios[i].Replications = w.reps
	}
	return fleet.EncodeCampaign(c)
}

// setupCampaign is the campaign workloads' set-up: generate the
// campaign, then decode and validate it the way fleetrun loads a file.
func (w *workloadSpec) setupCampaign() (fleet.Campaign, error) {
	data, err := w.campaignJSON()
	if err != nil {
		return fleet.Campaign{}, err
	}
	return fleet.DecodeCampaign(bytes.NewReader(data))
}

// samples are a measured window's per-iteration values.
type samples struct {
	seconds []float64 // the timed part of each iteration
	rssMB   []float64 // this process's peak RSS during each iteration
}

// window runs iter closed-loop: one iteration in flight, the next
// started only while it would still end inside the window, and at
// least minIterations of them. iter returns the duration of its timed
// part; checks it does afterwards are not timed.
func window(d time.Duration, iter func() (time.Duration, error)) (samples, error) {
	var s samples
	start := time.Now()
	for {
		t0 := time.Now()
		if err := resetPeakRSS(); err != nil {
			return s, err
		}
		td, err := iter()
		if err != nil {
			return s, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return s, err
		}
		s.seconds = append(s.seconds, td.Seconds())
		s.rssMB = append(s.rssMB, rss)
		if len(s.seconds) >= minIterations && time.Since(start)+time.Since(t0) > d {
			return s, nil
		}
	}
}

// setEndToEnd reports a measured run: set-up time, throughput from the
// median iteration, peak RSS and live heap.
func setEndToEnd(res *result, setupS float64, trialsPerIter int, s samples, rssMB, heapMB float64) {
	res.set("setup_s", setupS, "s")
	res.set("trials_per_s", float64(trialsPerIter)/median(s.seconds), "trials/s")
	res.set("max_rss_mb", rssMB, "MB")
	res.set("heap_live_mb", heapMB, "MB")
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// resetPeakRSS restarts this process's peak-RSS accounting: Linux
// resets the high-water mark to the current RSS on this write.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's peak RSS since the last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// liveHeapMB is HeapAlloc after a forced GC, with keep still
// referenced.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// timedSetups runs setup n times, each after a GC, and returns the
// median duration in seconds.
func timedSetups(n int, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// checker verifies campaign outputs: every scenario accounts for its
// configured replications, every run repeats the first run's bytes,
// and at the pinned seed those bytes hash to the pin.
type checker struct {
	c     fleet.Campaign
	first []byte
	pin   string // "" = not checked
}

func newChecker(w *workloadSpec, c fleet.Campaign, seed uint64) *checker {
	ck := &checker{c: c}
	if seed == pinSeed {
		ck.pin = w.pin
	}
	return ck
}

// check returns how many of the campaign's trials failed: degraded or
// missing trials, or all of them when the output is wrong.
func (ck *checker) check(data []byte) int {
	trials := ck.c.Trials()
	var res fleet.CampaignResult
	err := json.Unmarshal(data, &res)
	if err != nil || len(res.Scenarios) != len(ck.c.Scenarios) {
		fmt.Fprintf(os.Stderr, "bench: result does not decode to %d scenarios: %v\n", len(ck.c.Scenarios), err)
		return trials
	}
	failed := 0
	for i, s := range res.Scenarios {
		want := ck.c.Scenarios[i].Replications
		if s.Name != ck.c.Scenarios[i].Name || s.Replications+s.Failures != want {
			fmt.Fprintf(os.Stderr, "bench: scenario %q accounts for %d+%d of %d trials\n", s.Name, s.Replications, s.Failures, want)
			return trials
		}
		failed += s.Failures
	}
	if ck.first == nil {
		ck.first = data
		if ck.pin != "" && digest(data) != ck.pin {
			fmt.Fprintf(os.Stderr, "bench: output digest %s, pinned %s\n", digest(data), ck.pin)
			return trials
		}
	} else if !bytes.Equal(data, ck.first) {
		fmt.Fprintln(os.Stderr, "bench: output differs from the run's first output")
		return trials
	}
	return failed
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// measureCampaign: closed-loop fleet.Run of the campaign, in process.
func (w *workloadSpec) measureCampaign(e *env) (*result, error) {
	var c fleet.Campaign
	setup, err := timedSetups(campaignSetups, func() (err error) {
		c, err = w.setupCampaign()
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	ck := newChecker(w, c, e.seed)
	var last *fleet.CampaignResult
	run := func() (time.Duration, error) {
		t0 := time.Now()
		r, err := fleet.Run(c, fleet.Options{Workers: workers, Seed: e.seed})
		if err != nil {
			return 0, err
		}
		data, err := r.JSON()
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		res.Attempted += c.Trials()
		res.Failed += ck.check(data)
		last = r
		return d, nil
	}
	if _, err := run(); err != nil { // warm-up: a process's first campaign runs cold
		return nil, err
	}
	s, err := window(e.window, run)
	if err != nil {
		res.fail("%v", err)
	}
	res.Correct = res.Correct && res.Failed == 0
	setEndToEnd(res, setup, c.Trials(), s, median(s.rssMB), liveHeapMB(last))
	return res, nil
}
