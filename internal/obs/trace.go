package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The deterministic trace layer. A Span records one trial phase; its
// identity — (scenario, rep, attempt, seq, phase) — and its tick
// bounds come from trial coordinates and the simulation clock, both
// of which are fixed by the campaign's determinism contract. The ONLY
// nondeterministic field is WallNS, the wall-clock duration, which is
// excluded from determinism comparison by construction: strip (or
// zero) wall_ns and two traces of the same (campaign, seed) are
// byte-identical across worker counts, pooling modes and resumes of
// the re-executed trials. CI enforces exactly that with sed + cmp.

// Trial phase names, in canonical per-trial order. Attack appears
// only in attacked scenarios; checkpoint spans are run-level (emitted
// after every trial group, in write order) rather than per-trial.
const (
	PhaseReset      = "reset"      // cluster acquisition: pooled Reset or fresh build
	PhaseMix        = "mix"        // user provisioning + mix build + submission
	PhaseAttack     = "attack"     // adversary campaign execution (attacked scenarios)
	PhaseDrain      = "drain"      // scheduler drain to the horizon
	PhaseAggregate  = "aggregate"  // one-trial aggregate construction
	PhaseCheckpoint = "checkpoint" // one checkpoint journal write (periodic or final)
)

// Phases lists the phase names in canonical order, for renderers that
// want a stable column/row order.
var Phases = []string{PhaseReset, PhaseMix, PhaseAttack, PhaseDrain, PhaseAggregate, PhaseCheckpoint}

// Span is one traced phase of one trial attempt (or one checkpoint
// write, with Scenario "" and Seq = the write's 1-based ordinal).
type Span struct {
	Scenario  string `json:"scenario"`
	Rep       int    `json:"rep"`
	Attempt   int    `json:"attempt"`
	Seq       int    `json:"seq"`
	Phase     string `json:"phase"`
	StartTick int64  `json:"start_tick"`
	EndTick   int64  `json:"end_tick"`
	// WallNS is the phase's wall-clock duration. It is the one field
	// excluded from determinism comparison — zero it and identical
	// campaigns yield identical traces.
	WallNS int64 `json:"wall_ns"`
}

// Recorder accumulates one trial's spans on a single worker
// goroutine. A nil Recorder no-ops every method, so the fleet hot
// path records phases unconditionally and pays only nil checks when
// tracing is off. The span buffer is reused across trials via Take.
type Recorder struct {
	spans    []Span
	scenario string
	rep      int
	attempt  int
	seq      int
	started  bool
	wallFrom time.Time
	tickFrom int64
}

// StartAttempt keys subsequent spans to (scenario, rep, attempt) and
// restarts the phase sequence. Spans from earlier attempts of the
// same trial stay buffered: a trial's trace shows every attempt,
// retries included, in attempt order.
func (r *Recorder) StartAttempt(scenario string, rep, attempt int) {
	if r == nil {
		return
	}
	r.scenario, r.rep, r.attempt = scenario, rep, attempt
	r.seq = 0
	r.started = false
}

// Begin opens a phase at the given simulation tick.
func (r *Recorder) Begin(tick int64) {
	if r == nil {
		return
	}
	r.started = true
	r.tickFrom = tick
	r.wallFrom = time.Now()
}

// End closes the open phase, appending its span. An End without a
// Begin is ignored (a panicked attempt may unwind mid-phase; its
// half-open phase is deliberately dropped, keeping span identity
// deterministic under chaos-injected panics).
func (r *Recorder) End(phase string, tick int64) {
	if r == nil || !r.started {
		return
	}
	r.started = false
	r.spans = append(r.spans, Span{
		Scenario:  r.scenario,
		Rep:       r.rep,
		Attempt:   r.attempt,
		Seq:       r.seq,
		Phase:     phase,
		StartTick: r.tickFrom,
		EndTick:   tick,
		WallNS:    time.Since(r.wallFrom).Nanoseconds(),
	})
	r.seq++
}

// Abandon drops any half-open phase (after a recovered panic).
func (r *Recorder) Abandon() {
	if r == nil {
		return
	}
	r.started = false
}

// Take returns the buffered spans as a fresh copy and resets the
// buffer for the next trial. Nil recorders return nil.
func (r *Recorder) Take() []Span {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	out := append([]Span(nil), r.spans...)
	r.spans = r.spans[:0]
	return out
}

// Tracer serializes spans as NDJSON: one JSON object per line, in
// exactly the order Write receives them. The fleet executor hands it
// spans in trial-index order (then checkpoint writes in write order),
// which is what makes the file deterministic modulo wall_ns.
type Tracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTracer wraps w.
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w} }

// Write emits the spans, one NDJSON line each.
func (t *Tracer) Write(spans []Span) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(t.w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("obs: encoding span: %w", err)
		}
	}
	return bw.Flush()
}

// PhaseCost aggregates every span of one (scenario, phase) cell:
// trial-phase totals for the per-scenario cost table fleetrun renders
// after a traced run.
type PhaseCost struct {
	Scenario string
	Phase    string
	Count    int64 // spans (≈ trials, retries included)
	Ticks    int64 // total simulation ticks spanned
	WallNS   int64 // total wall time
}

// AggregatePhases folds spans into per-(scenario, phase) costs.
// Scenarios appear in first-appearance order (campaign order, since
// spans arrive in trial-index order); phases follow the canonical
// Phases order within each scenario. Checkpoint spans (scenario "")
// group under the empty scenario name, last.
func AggregatePhases(spans []Span) []PhaseCost {
	type cell struct{ scenario, phase string }
	agg := make(map[cell]*PhaseCost)
	scenarioOrder := []string{}
	seen := make(map[string]bool)
	for i := range spans {
		sp := &spans[i]
		if !seen[sp.Scenario] {
			seen[sp.Scenario] = true
			scenarioOrder = append(scenarioOrder, sp.Scenario)
		}
		key := cell{sp.Scenario, sp.Phase}
		pc := agg[key]
		if pc == nil {
			pc = &PhaseCost{Scenario: sp.Scenario, Phase: sp.Phase}
			agg[key] = pc
		}
		pc.Count++
		pc.Ticks += sp.EndTick - sp.StartTick
		pc.WallNS += sp.WallNS
	}
	// Checkpoint spans (scenario "") always sort last.
	sort.SliceStable(scenarioOrder, func(a, b int) bool {
		return (scenarioOrder[a] != "") && (scenarioOrder[b] == "")
	})
	var out []PhaseCost
	for _, sc := range scenarioOrder {
		for _, ph := range Phases {
			if pc := agg[cell{sc, ph}]; pc != nil {
				out = append(out, *pc)
				delete(agg, cell{sc, ph})
			}
		}
		// Unknown phase names (future additions) follow, sorted.
		var rest []PhaseCost
		for key, pc := range agg {
			if key.scenario == sc {
				rest = append(rest, *pc)
				delete(agg, key)
			}
		}
		sort.Slice(rest, func(a, b int) bool { return rest[a].Phase < rest[b].Phase })
		out = append(out, rest...)
	}
	return out
}
