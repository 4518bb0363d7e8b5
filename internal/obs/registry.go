// Package obs is the stack's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) whose
// state snapshots and merges like the streaming statistics in
// internal/metrics, plus a deterministic trace layer (trace.go) that
// emits NDJSON phase spans whose identity and ordering derive from
// trial coordinates and simulation ticks — never from wall-clock or
// goroutine scheduling.
//
// Two contracts shape everything here:
//
//   - Hot-path neutrality. Every handle (Counter, Gauge, Histogram,
//     Recorder) is nil-safe: a nil handle no-ops, so instrumented code
//     runs unconditionally and pays one predictable branch when
//     observability is off. Enabled handles are single atomic
//     operations and never allocate — pinned by the allocation audit
//     in registry_test.go — so campaign instrumentation cannot perturb
//     the trial hot path the lifecycle benchmark gates.
//
//   - Determinism neutrality. Nothing in this package draws from an
//     RNG, reorders work, or feeds back into simulation state; metrics
//     and traces observe a campaign without changing a byte of its
//     canonical output (gated by fleet's byte-identity tests and CI).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric handle. The zero value
// is ready to use; a nil Counter silently discards updates, which is
// how instrumented code stays branch-cheap when no registry is wired.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add folds n in. Negative deltas are a programming error but are not
// checked on the hot path; the Prometheus contract (counters only go
// up) is the caller's to keep.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 for a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an adjust-only metric handle (queue depths, in-flight
// counts). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts by delta (negative allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge (0 for a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by
// ascending upper bounds (a final +Inf bucket is implicit). The
// layout is fixed at registration so shard snapshots merge exactly,
// mirroring metrics.Histogram's layout-is-part-of-the-state rule.
// Observe is lock-free: one binary search plus two atomic adds.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe counts one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branchless-enough bucket pick: first bound >= v, else +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one name="value" pair on a metric instance.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// metric is one registered instance: a (name, labels) identity plus
// its typed handle.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key is the registry identity: name plus the sorted label pairs.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry holds registered metrics. Registration is idempotent —
// asking for the same (name, labels) returns the existing handle, so
// long-lived services re-enter instrumented code paths without
// double-registering — and kind/layout conflicts panic loudly at
// registration time, never silently at render time. A nil *Registry
// returns nil handles from every constructor, which is the "obs off"
// mode: instrumented code runs unchanged and every update no-ops.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	metrics []*metric
	// helpByName pins one help string and kind per family name:
	// Prometheus emits HELP/TYPE once per family, so two instances of
	// a name must agree.
	kindByName map[string]metricKind
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric), kindByName: make(map[string]metricKind)}
}

// labelPairs converts a variadic k,v list, sorted by name for a
// canonical identity.
func labelPairs(name string, kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: labels must be name,value pairs (got %d strings)", name, len(kv)))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Name: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(a, b int) bool { return labels[a].Name < labels[b].Name })
	return labels
}

// register resolves or creates the (name, labels) instance. init runs
// under the registry lock so concurrent registrations of the same
// instance resolve to one handle — handle creation outside the lock
// would let two racing registrars each install (and then update) a
// different instrument.
func (r *Registry) register(name, help string, kind metricKind, kv []string, init func(*metric)) *metric {
	labels := labelPairs(name, kv)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byKey[key]; m != nil {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		init(m)
		return m
	}
	if k, ok := r.kindByName[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric family %q re-registered as %s (was %s)", name, kind, k))
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	init(m)
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	r.kindByName[name] = kind
	return m
}

// Counter registers (or fetches) a counter. kv is an optional flat
// list of label name,value pairs. Nil registries return nil handles.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter, kv, func(m *metric) {
		if m.counter == nil {
			m.counter = &Counter{}
		}
	})
	return m.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge, kv, func(m *metric) {
		if m.gauge == nil {
			m.gauge = &Gauge{}
		}
	})
	return m.gauge
}

// HistogramMetric registers (or fetches) a histogram over the given
// ascending upper bounds (+Inf implicit). Re-registration must repeat
// the identical layout — the same rule metrics.Histogram.Merge
// enforces, moved to registration time.
func (r *Registry) HistogramMetric(name, help string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must ascend (bound %d: %v after %v)", name, i, bounds[i], bounds[i-1]))
		}
	}
	m := r.register(name, help, kindHistogram, kv, func(m *metric) {
		if m.hist == nil {
			m.hist = &Histogram{
				bounds: append([]float64(nil), bounds...),
				counts: make([]atomic.Int64, len(bounds)+1),
			}
		} else if !equalBounds(m.hist.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with a different bucket layout", name))
		}
	})
	return m.hist
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterSnap is one counter or gauge instance's snapshot value.
type CounterSnap struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnap shares CounterSnap's shape; only merge semantics differ
// (gauges sum on merge: a per-shard depth merges to the fleet total).
type GaugeSnap = CounterSnap

// HistogramSnap is one histogram instance's snapshot: the fixed
// layout plus non-cumulative per-bucket counts (the last count is the
// +Inf bucket). Prometheus rendering cumulates at write time.
type HistogramSnap struct {
	Name   string    `json:"name"`
	Help   string    `json:"help,omitempty"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a registry's point-in-time state: plain data that
// marshals to JSON, merges with other snapshots (shard registries
// combine to exactly what one registry would have accumulated —
// pinned by TestSnapshotMergeEquivalence), and renders to Prometheus
// text. Entries are sorted by (name, labels) so identical state
// always produces identical bytes.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values. Individual reads
// are atomic; the snapshot as a whole is not a consistent cut across
// metrics, which is the standard scrape contract.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterSnap{Name: m.name, Help: m.help, Labels: m.labels, Value: m.counter.Value()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnap{Name: m.name, Help: m.help, Labels: m.labels, Value: m.gauge.Value()})
		case kindHistogram:
			h := HistogramSnap{
				Name:   m.name,
				Help:   m.help,
				Labels: m.labels,
				Bounds: append([]float64(nil), m.hist.bounds...),
				Counts: make([]int64, len(m.hist.counts)),
				Sum:    math.Float64frombits(m.hist.sum.Load()),
				Count:  m.hist.count.Load(),
			}
			for i := range m.hist.counts {
				h.Counts[i] = m.hist.counts[i].Load()
			}
			s.Histograms = append(s.Histograms, h)
		}
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(a, b int) bool { return snapLess(s.Counters[a], s.Counters[b]) })
	sort.Slice(s.Gauges, func(a, b int) bool { return snapLess(s.Gauges[a], s.Gauges[b]) })
	sort.Slice(s.Histograms, func(a, b int) bool {
		return metricKey(s.Histograms[a].Name, s.Histograms[a].Labels) < metricKey(s.Histograms[b].Name, s.Histograms[b].Labels)
	})
}

func snapLess(a, b CounterSnap) bool {
	return metricKey(a.Name, a.Labels) < metricKey(b.Name, b.Labels)
}

// JSON renders the snapshot in the repo's artifact form: indented,
// trailing newline.
func (s *Snapshot) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
