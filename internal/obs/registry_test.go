package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// feed applies a deterministic op stream to a registry.
func feed(r *Registry) {
	trials := r.Counter("fleet_trials_completed_total", "trials completed")
	retries := r.Counter("fleet_trial_panics_total", "panicking attempts")
	depth := r.Gauge("fleetd_queue_depth", "queued campaigns")
	ticks := r.HistogramMetric("fleet_trial_ticks", "trial makespan", []float64{10, 100, 1000})
	perShard := r.Counter("shard_attempts_total", "attempts", "shard", "0")
	for i := 0; i < 1000; i++ {
		trials.Inc()
		if i%7 == 0 {
			retries.Add(2)
		}
		depth.Add(1)
		ticks.Observe(float64(i % 1500))
		if i%3 == 0 {
			perShard.Inc()
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	feed(r)
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("snapshot JSON does not round-trip")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x")
	c2 := r.Counter("x_total", "x")
	if c1 != c2 {
		t.Fatal("re-registering the same counter must return the same handle")
	}
	h1 := r.HistogramMetric("h", "", []float64{1, 2, 3})
	h2 := r.HistogramMetric("h", "", []float64{1, 2, 3})
	if h1 != h2 {
		t.Fatal("re-registering the same histogram must return the same handle")
	}
	l1 := r.Counter("labeled_total", "", "shard", "1")
	l2 := r.Counter("labeled_total", "", "shard", "2")
	if l1 == l2 {
		t.Fatal("different label values must be distinct instances")
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "")
	mustPanic("kind conflict", func() { r.Gauge("a_total", "") })
	r.HistogramMetric("h", "", []float64{1, 2})
	mustPanic("layout conflict", func() { r.HistogramMetric("h", "", []float64{1, 2, 3}) })
	mustPanic("odd labels", func() { r.Counter("b_total", "", "only-a-name") })
	mustPanic("descending bounds", func() { r.HistogramMetric("h2", "", []float64{2, 1}) })
	mustPanic("family kind conflict across labels", func() { r.Gauge("h", "", "x", "y") })
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.HistogramMetric("z", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(5)
	g.Add(3)
	g.Add(-1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestHotPathAllocs is the allocation audit behind the trial-hot-path
// contract: an enabled counter/gauge/histogram update never
// allocates, and neither does the disabled (nil-handle) path — so
// wiring obs through the fleet executor cannot move the lifecycle
// benchmark's allocs/trial.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.HistogramMetric("h", "", []float64{1, 10, 100, 1000})
	cases := []struct {
		name string
		op   func()
	}{
		{"counter.Add", func() { c.Add(3) }},
		{"gauge.Add", func() { g.Add(7) }},
		{"histogram.Observe", func() { h.Observe(42) }},
		{"nil counter.Add", func() { (*Counter)(nil).Add(3) }},
		{"nil histogram.Observe", func() { (*Histogram)(nil).Observe(3) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramMetric("h", "", []float64{10, 20, 30})
	for _, v := range []float64{5, 10, 10.5, 25, 30, 31, 1e9} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms[0]
	want := []int64{2, 1, 2, 2} // ≤10: {5,10}; ≤20: {10.5}; ≤30: {25,30}; +Inf: {31,1e9}
	if len(snap.Counts) != len(want) {
		t.Fatalf("counts length %d, want %d", len(snap.Counts), len(want))
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Fatalf("bucket %d: got %d want %d (all: %v)", i, snap.Counts[i], want[i], snap.Counts)
		}
	}
	if snap.Count != 7 {
		t.Fatalf("count %d, want 7", snap.Count)
	}
	if snap.Sum != 5+10+10.5+25+30+31+1e9 {
		t.Fatalf("sum %v wrong", snap.Sum)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	// Two registries registering the same metrics in different orders
	// must snapshot to identical bytes.
	a := NewRegistry()
	a.Counter("b_total", "").Add(1)
	a.Counter("a_total", "").Add(2)
	a.Gauge("z", "").Add(3)
	b := NewRegistry()
	b.Gauge("z", "").Add(3)
	b.Counter("a_total", "").Add(2)
	b.Counter("b_total", "").Add(1)
	aj, _ := a.Snapshot().JSON()
	bj, _ := b.Snapshot().JSON()
	if string(aj) != string(bj) {
		t.Fatalf("registration order leaked into snapshot bytes:\n%s\nvs\n%s", aj, bj)
	}
	var decoded Snapshot
	if err := json.Unmarshal(aj, &decoded); err != nil {
		t.Fatal(err)
	}
}

// Concurrent registration of the same instance must resolve to one
// handle — fleetd shares one registry across concurrently-launched
// in-process shard attempts, each of which re-registers the fleet
// bundle. (Run with -race; before handle init moved under the
// registry lock, racing registrars could each install their own
// instrument and lose the other's counts.)
func TestConcurrentRegistrationSharesHandles(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total", "shared counter")
			h := r.HistogramMetric("shared_hist", "shared histogram", []float64{1, 2})
			g := r.Gauge("shared_gauge", "shared gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters[0].Value; got != workers*perWorker {
		t.Errorf("shared_total = %d, want %d (a racing registration dropped a handle)", got, workers*perWorker)
	}
	if got := s.Histograms[0].Count; got != workers*perWorker {
		t.Errorf("shared_hist count = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges[0].Value; got != workers*perWorker {
		t.Errorf("shared_gauge = %d, want %d", got, workers*perWorker)
	}
}
