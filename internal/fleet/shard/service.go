package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Service defaults.
const (
	DefaultQueueDepth = 4
	DefaultRetryAfter = 2 * time.Second
	// maxSubmitBytes caps a POST /campaigns body; a larger one is
	// answered 413 before it is buffered. The largest preset,
	// e17-redteam, encodes to about 16 KB.
	maxSubmitBytes = 1 << 20
)

// ServiceConfig configures the fleetd campaign service.
type ServiceConfig struct {
	// QueueDepth bounds the campaign queue; a submission past the
	// bound is rejected with 429 + Retry-After — backpressure, not
	// unbounded memory. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// Concurrency is how many campaigns run at once; <= 0 means 1.
	// Shards within a campaign always run concurrently regardless.
	Concurrency int
	// DefaultShards applies when a submission does not set "shards".
	DefaultShards int
	// Workers is each shard attempt's fleet worker count.
	Workers int
	// Dir is the working root: each campaign gets Dir/<id>/ for its
	// sidecars and heartbeats. "" means a fresh temp directory.
	Dir string
	// Launcher runs shard attempts (nil = InProc{}); fleetd -exec
	// installs the re-exec launcher here.
	Launcher Launcher
	// Supervision knobs, forwarded to Supervise per campaign.
	CheckpointEvery  int
	HeartbeatTimeout time.Duration
	AttemptDeadline  time.Duration
	MaxShardRetries  int
	BackoffBase      time.Duration
	BackoffMax       time.Duration
	// RetryAfter is the hint sent with 429 responses; <= 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Opt-in:
	// profiles expose internals, so a production fleetd keeps them off
	// unless explicitly asked (fleetd -pprof).
	EnablePprof bool
	Logf        func(format string, args ...any)
}

// Submission is the POST /campaigns request envelope. Campaign is the
// standard campaign JSON (unknown fields rejected); Faults is an
// optional chaos plan — service-mode chaos runs exist to exercise the
// supervision layer and are excluded from perf records (see
// EXPERIMENTS.md).
type Submission struct {
	Campaign json.RawMessage  `json:"campaign"`
	Seed     uint64           `json:"seed"`
	Shards   int              `json:"shards,omitempty"`
	Faults   *fleet.FaultPlan `json:"faults,omitempty"`
}

// job is one submitted campaign's lifecycle record.
type job struct {
	id     string
	c      fleet.Campaign
	seed   uint64
	shards int
	faults *fleet.FaultPlan
	dir    string

	mu        sync.Mutex
	state     string // queued | running | done | failed | drained
	status    *Status
	scenarios []scenarioEvent
	result    []byte // canonical campaign JSON once done
	errMsg    string
	started   time.Time     // when the job left the queue; zero while queued
	finished  time.Time     // when the job reached a terminal state
	notify    chan struct{} // closed and replaced on every update (broadcast)
}

// scenarioEvent is one streamed merged-scenario result, in ascending
// (trial-index) scenario order.
type scenarioEvent struct {
	Index  int             `json:"scenario"`
	Result json.RawMessage `json:"result"`
}

func (j *job) update(f func()) {
	j.mu.Lock()
	f()
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// Service is the fleetd core: a bounded campaign queue in front of
// the shard supervisor, exposed over HTTP. It exists apart from
// cmd/fleetd so tests drive it with httptest and the in-process
// launcher under the race detector.
type Service struct {
	cfg ServiceConfig
	reg *obs.Registry
	sm  serviceMetrics

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string
	queue       chan *job
	nextID      int
	draining    bool
	interrupted bool

	drainC chan struct{}
	wg     sync.WaitGroup
}

// NewService builds the service and starts its campaign workers.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.DefaultShards <= 0 {
		cfg.DefaultShards = DefaultShards
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "fleetd-*")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	}
	reg := obs.NewRegistry()
	s := &Service{
		cfg:    cfg,
		reg:    reg,
		sm:     newServiceMetrics(reg),
		jobs:   make(map[string]*job),
		queue:  make(chan *job, cfg.QueueDepth),
		drainC: make(chan struct{}),
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// worker drains the campaign queue. After a drain begins, queued-but-
// unstarted campaigns are marked drained rather than run: "stop
// admitting, checkpoint in-flight, exit" applies to work not yet
// started too.
func (s *Service) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.sm.queueDepth.Add(-1)
		s.mu.Lock()
		draining := s.draining
		if draining {
			s.interrupted = true
		}
		s.mu.Unlock()
		if draining {
			s.sm.drained.Inc()
			jb.update(func() { jb.state, jb.finished = "drained", time.Now() })
			continue
		}
		s.runJob(jb)
	}
}

func (s *Service) runJob(jb *job) {
	s.sm.running.Add(1)
	defer s.sm.running.Add(-1)
	jb.update(func() { jb.state, jb.started = "running", time.Now() })
	if err := os.MkdirAll(jb.dir, 0o755); err != nil {
		s.sm.failed.Inc()
		jb.update(func() { jb.state, jb.errMsg, jb.finished = "failed", err.Error(), time.Now() })
		return
	}
	res, err := Supervise(jb.c, Options{
		Shards:           jb.shards,
		Seed:             jb.seed,
		Workers:          s.cfg.Workers,
		Dir:              jb.dir,
		Launcher:         s.cfg.Launcher,
		Faults:           jb.faults,
		CheckpointEvery:  s.cfg.CheckpointEvery,
		HeartbeatTimeout: s.cfg.HeartbeatTimeout,
		AttemptDeadline:  s.cfg.AttemptDeadline,
		MaxShardRetries:  s.cfg.MaxShardRetries,
		BackoffBase:      s.cfg.BackoffBase,
		BackoffMax:       s.cfg.BackoffMax,
		Drain:            s.drainC,
		Status:           jb.status,
		Metrics:          s.reg,
		Logf: func(format string, args ...any) {
			s.cfg.Logf("campaign %s: "+format, append([]any{jb.id}, args...)...)
		},
		OnScenario: func(i int, sr *fleet.ScenarioResult) {
			data, merr := json.Marshal(sr)
			if merr != nil {
				return
			}
			jb.update(func() { jb.scenarios = append(jb.scenarios, scenarioEvent{Index: i, Result: data}) })
		},
	})
	switch {
	case err == nil:
		data, jerr := res.JSON()
		if jerr != nil {
			s.sm.failed.Inc()
			jb.update(func() { jb.state, jb.errMsg, jb.finished = "failed", jerr.Error(), time.Now() })
			return
		}
		s.sm.done.Inc()
		jb.update(func() { jb.state, jb.result, jb.finished = "done", data, time.Now() })
	default:
		var de *DrainedError
		if errors.As(err, &de) {
			s.mu.Lock()
			s.interrupted = true
			s.mu.Unlock()
			s.sm.drained.Inc()
			jb.update(func() { jb.state, jb.finished = "drained", time.Now() })
			return
		}
		s.sm.failed.Inc()
		jb.update(func() { jb.state, jb.errMsg, jb.finished = "failed", err.Error(), time.Now() })
	}
}

// Drain gracefully stops the service: no new admissions (503), queued
// campaigns are marked drained, running shards checkpoint and stop,
// and Drain returns when the workers are idle or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainC)
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Interrupted reports whether the drain cut short any admitted
// campaign — fleetd maps this to the PR-6 "interrupted" exit code 3.
func (s *Service) Interrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interrupted
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if len(sub.Campaign) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "submission has no campaign"})
		return
	}
	c, err := fleet.DecodeCampaign(bytes.NewReader(sub.Campaign))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	shards := sub.Shards
	if shards <= 0 {
		shards = s.cfg.DefaultShards
	}
	if sub.Faults != nil {
		if err := sub.Faults.Validate(c); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		for _, sf := range sub.Faults.Shards {
			if sf.Shard >= shards {
				writeJSON(w, http.StatusBadRequest, map[string]string{
					"error": fmt.Sprintf("fault targets shard %d but the campaign runs %d shards", sf.Shard, shards)})
				return
			}
		}
	}

	// Admission happens under the service lock so draining and a full
	// queue are decided atomically against Drain and other submitters.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining: not admitting campaigns"})
		return
	}
	s.nextID++
	jb := &job{
		id:     fmt.Sprintf("c%06d", s.nextID),
		c:      c,
		seed:   sub.Seed,
		shards: shards,
		faults: sub.Faults,
		state:  "queued",
		status: &Status{},
		notify: make(chan struct{}),
	}
	jb.dir = filepath.Join(s.cfg.Dir, jb.id)
	select {
	case s.queue <- jb:
		s.sm.submitted.Inc()
		s.sm.queueDepth.Add(1)
	default:
		// Queue full: backpressure, with a hint. The id was burned;
		// ids are cheap.
		s.mu.Unlock()
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "campaign queue is full; retry later"})
		return
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      jb.id,
		"status":  "/campaigns/" + jb.id,
		"results": "/campaigns/" + jb.id + "/results",
		"stream":  "/campaigns/" + jb.id + "/stream",
	})
}

func (s *Service) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobStatus is the GET /campaigns/{id} body. The progress block —
// trials done/total, retry count, completion rate and ETA — is derived
// from the supervisor's live per-shard status, so a watcher needs no
// other endpoint to see how far along a campaign is.
type jobStatus struct {
	ID            string        `json:"id"`
	State         string        `json:"state"`
	Campaign      string        `json:"campaign"`
	Seed          uint64        `json:"seed"`
	Shards        int           `json:"shards"`
	ScenariosDone int           `json:"scenarios_done"`
	ScenarioCount int           `json:"scenario_count"`
	TrialsDone    int           `json:"trials_done"`
	TrialsTotal   int           `json:"trials_total"`
	// Retries counts shard attempts past each shard's first (restored
	// trials are never recomputed, so retries cost backoff + the lost
	// tail, not full recomputation).
	Retries int `json:"retries"`
	// RatePerSec is completed trials per second of run time; 0 until
	// the first trial lands. ETASeconds extrapolates the remainder at
	// that rate and is present only while running.
	RatePerSec  float64       `json:"rate_per_sec,omitempty"`
	ETASeconds  float64       `json:"eta_seconds,omitempty"`
	ShardStatus []ShardStatus `json:"shard_status,omitempty"`
	Error       string        `json:"error,omitempty"`
}

func (jb *job) snapshot() jobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	st := jobStatus{
		ID:            jb.id,
		State:         jb.state,
		Campaign:      jb.c.Name,
		Seed:          jb.seed,
		Shards:        jb.shards,
		ScenariosDone: len(jb.scenarios),
		ScenarioCount: len(jb.c.Scenarios),
		TrialsTotal:   jb.c.Trials(),
		ShardStatus:   jb.status.Snapshot(),
		Error:         jb.errMsg,
	}
	for _, sh := range st.ShardStatus {
		st.TrialsDone += sh.Completed
		if sh.Attempt > 1 {
			st.Retries += sh.Attempt - 1
		}
	}
	if !jb.started.IsZero() {
		elapsed := time.Since(jb.started)
		if !jb.finished.IsZero() {
			elapsed = jb.finished.Sub(jb.started)
		}
		if secs := elapsed.Seconds(); secs > 0 && st.TrialsDone > 0 {
			st.RatePerSec = float64(st.TrialsDone) / secs
			if jb.state == "running" {
				st.ETASeconds = float64(st.TrialsTotal-st.TrialsDone) / st.RatePerSec
			}
		}
	}
	return st
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, jb := range jobs {
		out = append(out, jb.snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such campaign"})
		return
	}
	writeJSON(w, http.StatusOK, jb.snapshot())
}

// handleResults serves the campaign's canonical result bytes — the
// exact bytes a 1-process fleetrun -json would print, which is what
// the CI identity gates cmp against fleetd's output.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such campaign"})
		return
	}
	jb.mu.Lock()
	state, result, errMsg := jb.state, jb.result, jb.errMsg
	jb.mu.Unlock()
	switch state {
	case "done":
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case "failed":
		writeJSON(w, http.StatusInternalServerError, map[string]string{"state": state, "error": errMsg})
	case "drained":
		writeJSON(w, http.StatusConflict, map[string]string{"state": state})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"state": state})
	}
}

// handleStream serves newline-delimited JSON: one line per merged
// scenario as coverage completes (ascending scenario order — the
// trial-index order the determinism contract reduces in), then a
// terminal line carrying the job's final state.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such campaign"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		jb.mu.Lock()
		events := jb.scenarios[sent:]
		state := jb.state
		notify := jb.notify
		jb.mu.Unlock()
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
			sent++
		}
		if state == "done" || state == "failed" || state == "drained" {
			enc.Encode(map[string]any{"done": true, "state": state})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// health is the GET /healthz body: structured operational state, not
// just liveness. state is "accepting" (the POST path admits work) or
// "draining" (503 on submit, in-flight campaigns checkpointing); the
// counts say what the process is actually doing right now.
type health struct {
	State         string `json:"state"` // accepting | draining
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Running       int    `json:"running"`
	ActiveShards  int    `json:"active_shards"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := health{
		State:         "accepting",
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
	}
	if s.draining {
		h.State = "draining"
	}
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, jb := range jobs {
		jb.mu.Lock()
		running := jb.state == "running"
		status := jb.status
		jb.mu.Unlock()
		if !running {
			continue
		}
		h.Running++
		for _, sh := range status.Snapshot() {
			if sh.State == "running" {
				h.ActiveShards++
			}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics serves the registry in Prometheus text format: the
// fleetd_* service counters, the shard_* supervision counters, and —
// for in-process launchers — the fleet_* trial counters, accumulated
// across every campaign this process has run.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = s.reg.WritePrometheus(w)
}
