package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/shard"
)

// fleetdShards is the shard count every submission asks for: one
// single-worker shard per core.
const fleetdShards = 2

// starter starts one campaign service and returns its base URL and
// how to stop it.
type starter func() (url string, stop stopFunc, err error)

// stopFunc stops a service and returns once it and everything it
// started have exited, with the largest peak RSS among those processes
// (0 for a service running inside this process).
type stopFunc func() (rssMB float64, err error)

// prepareService computes the reference result — an in-process
// fleet.Run of the service's campaign — before anything is measured.
func (w *workloadSpec) prepareService(e *env) error {
	c, err := w.setupCampaign()
	if err != nil {
		return err
	}
	e.expected, _, err = runReference(c, e.seed, workers)
	return err
}

// fleetdStarter runs `fleetd -exec fleetrun` on a free port with two
// single-worker shards per campaign and the default checkpoint
// cadence. -pprof lets the benchmark read fleetd's live heap. fleetd
// and its shard workers form their own process group, so a fleetd that
// does not drain is killed together with its workers.
func fleetdStarter(fleetd, fleetrun, dir string) starter {
	return func() (string, stopFunc, error) {
		cmd := exec.Command(fleetd, "-addr", "127.0.0.1:0", "-dir", dir, "-exec", fleetrun,
			"-shards", strconv.Itoa(fleetdShards), "-workers", "1", "-pprof")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return "", nil, err
		}
		if err := cmd.Start(); err != nil {
			return "", nil, err
		}
		// stop drains fleetd with SIGTERM. fleetd installs its handler
		// only after it starts serving, so a SIGTERM right after
		// /healthz first answers may still find the default action:
		// death by that signal is a clean stop too. wait4 reports the
		// largest RSS among fleetd and the shard workers it reaped.
		stop := func() (float64, error) {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			var err error
			select {
			case err = <-done:
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
						err = nil
					}
				}
			case <-time.After(30 * time.Second):
				_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
				<-done
				err = fmt.Errorf("fleetd did not drain within 30s")
			}
			rss := 0.0
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				rss = float64(ru.Maxrss) * 1024 / 1e6
			}
			return rss, err
		}
		// fleetd prints its resolved address as its first stdout line.
		line, err := bufio.NewReader(out).ReadString('\n')
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "fleetd: listening on ")
		if err != nil || !ok {
			_, _ = stop()
			return "", nil, fmt.Errorf("fleetd did not report its address (%q, %v)", line, err)
		}
		return "http://" + addr, stop, nil
	}
}

// client talks to one campaign service, one request at a time. It
// keeps no idle connections, so none is open in the service while its
// heap is read.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}}
}

// ready polls /healthz until the service reports it is accepting.
func (cl *client) ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var h struct {
			State string `json:"state"`
		}
		body, err := cl.get("/healthz")
		if err == nil && json.Unmarshal(body, &h) == nil && h.State == "accepting" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not accepting after %v (%v)", timeout, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (cl *client) get(path string) ([]byte, error) {
	resp, err := cl.http.Get(cl.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// startTimed starts a service and waits until it accepts work; the
// duration is the service's set-up time.
func startTimed(start starter) (*client, stopFunc, time.Duration, error) {
	t0 := time.Now()
	url, stop, err := start()
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(url)
	if err := cl.ready(30 * time.Second); err != nil {
		_, _ = stop()
		return nil, nil, 0, err
	}
	return cl, stop, time.Since(t0), nil
}

// campaignRun is one campaign through the service, timed from outside.
type campaignRun struct {
	result      []byte
	firstResult time.Duration // POST until the first streamed scenario
	wall        time.Duration // POST until the result bytes are in hand
}

// run submits the campaign, follows its stream to the end and fetches
// the result bytes. A campaign that does not end "done" is an error.
func (cl *client) run(submission []byte, t *tracer) (campaignRun, error) {
	var r campaignRun
	t0 := time.Now()
	t.begin("fleetd.submit")
	resp, err := cl.http.Post(cl.url+"/campaigns", "application/json", bytes.NewReader(submission))
	if err != nil {
		t.end(1)
		return r, err
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	t.end(1)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return r, fmt.Errorf("POST /campaigns: %s (%v)", resp.Status, err)
	}

	t.begin("fleetd.stream")
	resp, err = cl.http.Get(cl.url + "/campaigns/" + acc.ID + "/stream")
	if err != nil {
		t.end(1)
		return r, err
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			resp.Body.Close()
			t.end(1)
			return r, fmt.Errorf("stream line: %w", err)
		}
		if line.Done {
			state = line.State
			break
		}
		if r.firstResult == 0 {
			r.firstResult = time.Since(t0)
		}
	}
	resp.Body.Close()
	t.end(1)
	if state != "done" {
		return r, fmt.Errorf("campaign %s ended %q (%v)", acc.ID, state, sc.Err())
	}

	t.begin("fleetd.results")
	r.result, err = cl.get("/campaigns/" + acc.ID + "/results")
	t.end(1)
	if err != nil {
		return r, err
	}
	r.wall = time.Since(t0)
	return r, nil
}

var (
	heapAllocRe = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)
	attemptsRe  = regexp.MustCompile(`(?m)^shard_attempts_total (\d+)$`)
)

// heapMB reads the service's live heap from its heap profile, which
// forces a GC first. The profile handler's own allocations add to each
// read, so the smallest of a few reads is kept.
func (cl *client) heapMB() (float64, error) {
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		body, err := cl.get("/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		m := heapAllocRe.FindSubmatch(body)
		if m == nil {
			return 0, fmt.Errorf("no HeapAlloc in the heap profile")
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			return 0, err
		}
		least = min(least, v/1e6)
	}
	return least, nil
}

// attempts scrapes the shard attempts launched so far from /metrics.
func (cl *client) attempts() (float64, error) {
	body, err := cl.get("/metrics")
	if err != nil {
		return 0, err
	}
	m := attemptsRe.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("no shard_attempts_total in /metrics")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// submission is the POST /campaigns body for the workload's campaign.
func (w *workloadSpec) submission(seed uint64) ([]byte, fleet.Campaign, error) {
	c, err := w.setupCampaign()
	if err != nil {
		return nil, c, err
	}
	data, err := w.campaignJSON()
	if err != nil {
		return nil, c, err
	}
	body, err := json.Marshal(shard.Submission{Campaign: data, Seed: seed, Shards: fleetdShards})
	return body, c, err
}

// checkService checks a campaign served by the service: the in-process
// checks, plus byte equality with the in-process reference.
func checkService(ck *checker, got, want []byte) int {
	if !bytes.Equal(got, want) {
		fmt.Fprintln(os.Stderr, "bench: /results differs from the in-process fleet.Run of the same campaign")
		return ck.c.Trials()
	}
	return ck.check(got)
}

// measureService: set-up is starting the service until it accepts
// work; the window then submits the campaign closed-loop, one in
// flight.
func (w *workloadSpec) measureService(e *env) (*result, error) {
	body, c, err := w.submission(e.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var cl *client
	var stop stopFunc
	for i := 0; i < serviceSetups; i++ {
		if stop != nil {
			if _, err := stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if cl, stop, d, err = startTimed(e.start); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res := &result{Correct: true}
	ck := newChecker(w, c, e.seed)
	run := func() (time.Duration, error) {
		r, err := cl.run(body, nil)
		res.Attempted += c.Trials()
		if err != nil {
			res.Failed += c.Trials()
			return 0, err
		}
		res.Failed += checkService(ck, r.result, e.expected)
		return r.wall, nil
	}
	// The warm-up campaign is not sampled; fleetd's live heap is read
	// after it, before later campaigns add their retained results.
	_, err = run()
	heap := 0.0
	if err == nil {
		heap, err = cl.heapMB()
	}
	var s samples
	if err == nil {
		s, err = window(e.window, run)
	}
	rss, serr := stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		res.fail("%v", err)
	}
	res.Correct = res.Correct && res.Failed == 0
	// The work happens in fleetd and its shard processes: rss is the
	// largest peak RSS among them.
	setEndToEnd(res, median(setups), c.Trials(), s, rss, heap)
	return res, nil
}

// traceService is the traced run of the service workload. It times
// one campaign through the service call by call, replays the campaign
// in process like the drain workload, and runs the shard path fleetd
// drives — shard.Plan, fleet.RunShard per shard at fleetd's default
// checkpoint cadence, LoadCheckpoint, MergeCheckpoints — counting
// every sidecar write. All three must reproduce the reference bytes.
func (w *workloadSpec) traceService(e *env) (*result, error) {
	body, c, err := w.submission(e.seed)
	if err != nil {
		return nil, err
	}
	// Reference runs (3), the service, the replay and the shard path.
	res := &result{Correct: true, Attempted: 6 * c.Trials()}
	want := e.expected
	if f := newChecker(w, c, e.seed).check(want); f > 0 {
		res.fail("reference output")
	}
	_, inproc, err := warmReference(c, e.seed, workers)
	if err != nil {
		return nil, err
	}
	_, untraced, err := runReference(c, e.seed, 1)
	if err != nil {
		return nil, err
	}
	t := newTracer()

	t.begin("run.fleetd")
	t.begin("fleetd.start")
	cl, stop, _, err := startTimed(e.start)
	t.end(1)
	if err != nil {
		return nil, err
	}
	r, err := cl.run(body, t)
	attempts := 0.0
	if err == nil {
		attempts, err = cl.attempts()
	}
	t.begin("fleetd.stop")
	if _, serr := stop(); err == nil {
		err = serr
	}
	t.end(1)
	t.end(1)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(r.result, want) {
		res.fail("/results differs from the in-process fleet.Run")
	}

	t0 := time.Now()
	t.begin("run.replay")
	got, st, err := replay(c, e.seed, t)
	t.end(1)
	replayWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := sameResult(got, want); err != nil {
		res.fail("%v", err)
	}

	t.begin("run.shard")
	merged, ckst, err := shardPath(c, e.seed, e.dir, t)
	t.end(1)
	if err != nil {
		return nil, err
	}
	if err := sameResult(merged, want); err != nil {
		res.fail("shard.MergeCheckpoints: %v", err)
	}

	p := t.fold()
	setLayerMetrics(res, p)
	if err := setReplayMetrics(res, st); err != nil {
		return nil, err
	}
	res.set("trace.overhead_frac", float64(replayWall)/float64(untraced)-1, "ratio")
	res.set("checkpoint.writes", float64(ckst.writes), "count")
	res.set("checkpoint.bytes_written", float64(ckst.bytes), "B")
	res.set("checkpoint.bytes_per_trial", ratio(float64(ckst.bytes), float64(c.Trials())), "B")
	res.set("shard.attempts", attempts, "count")
	res.set("shard.overhead_frac", 1-float64(inproc)/float64(r.wall), "ratio")
	res.set("shard.first_result_frac", ratio(float64(r.firstResult), float64(r.wall)), "ratio")
	res.set("fleetd.result_bytes", float64(len(r.result)), "B")
	return res, t.write(e.traceOut, os.Stderr)
}

// checkpointStats counts the sidecar writes of the shard path.
type checkpointStats struct {
	writes, bytes int64
}

// shardPath runs the campaign the way fleetd's supervisor does, in
// process and one shard after another, and merges the sidecars.
func shardPath(c fleet.Campaign, seed uint64, dir string, t *tracer) (*fleet.CampaignResult, checkpointStats, error) {
	var st checkpointStats
	t.begin("shard.plan")
	plan, err := shard.Plan(c, fleetdShards)
	t.end(1)
	if err != nil {
		return nil, st, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	var cks []*fleet.Checkpoint
	for _, a := range plan {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.ck.json", a.Shard))
		var statErr error
		// Progress follows each sidecar write (every trial at fleetd's
		// default cadence); the final write is counted after the run.
		countWrite := func(int) {
			fi, err := os.Stat(path)
			if err != nil {
				statErr = err
				return
			}
			st.writes++
			st.bytes += fi.Size()
		}
		t.begin("shard.runshard")
		_, _, err := fleet.RunShard(c, fleet.Options{
			Workers: 1, Seed: seed, CheckpointPath: path, CheckpointEvery: 1, Progress: countWrite,
		}, fleet.ShardRun{Index: a.Shard, Count: len(plan), Ranges: a.Ranges})
		t.end(int64(a.Trials()))
		if err != nil {
			return nil, st, err
		}
		countWrite(0)
		if statErr != nil {
			return nil, st, statErr
		}
		t.begin("checkpoint.load")
		ck, err := fleet.LoadCheckpoint(path)
		if err == nil {
			err = ck.ValidateAgainst(c, seed)
		}
		t.end(1)
		if err != nil {
			return nil, st, err
		}
		t.begin("checkpoint.save")
		err = ck.Save(path)
		t.end(1)
		if err != nil {
			return nil, st, err
		}
		cks = append(cks, ck)
	}
	t.begin("shard.merge")
	res, err := shard.MergeCheckpoints(c, seed, cks, false)
	t.end(1)
	return res, st, err
}
