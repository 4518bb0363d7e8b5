package obs

import (
	"strconv"
	"strings"
	"testing"
)

func renderString(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("fleet_trials_completed_total", "trials completed").Add(42)
	r.Gauge("fleetd_queue_depth", "queued campaigns").Add(3)
	out := renderString(t, r)

	for _, want := range []string{
		"# HELP fleet_trials_completed_total trials completed\n",
		"# TYPE fleet_trials_completed_total counter\n",
		"fleet_trials_completed_total 42\n",
		"# TYPE fleetd_queue_depth gauge\n",
		"fleetd_queue_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "help with \\ backslash\nand newline",
		"path", `C:\tmp`+"\n", "quote", `say "hi"`).Inc()
	out := renderString(t, r)
	if !strings.Contains(out, `# HELP weird_total help with \\ backslash\nand newline`) {
		t.Errorf("HELP escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `path="C:\\tmp\n"`) {
		t.Errorf("label backslash/newline escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `quote="say \"hi\""`) {
		t.Errorf("label quote escaping wrong:\n%s", out)
	}
}

func TestPrometheusLabelsSortedAndFamilyHeaderOnce(t *testing.T) {
	r := NewRegistry()
	// Registered with unsorted label pairs and out-of-order instances.
	r.Counter("shard_attempts_total", "attempts", "shard", "1").Add(2)
	r.Counter("shard_attempts_total", "attempts", "shard", "0").Add(1)
	out := renderString(t, r)
	if strings.Count(out, "# TYPE shard_attempts_total counter") != 1 {
		t.Errorf("family TYPE header must appear exactly once:\n%s", out)
	}
	i0 := strings.Index(out, `shard_attempts_total{shard="0"} 1`)
	i1 := strings.Index(out, `shard_attempts_total{shard="1"} 2`)
	if i0 < 0 || i1 < 0 || i0 > i1 {
		t.Errorf("labeled instances missing or unsorted:\n%s", out)
	}
}

func TestPrometheusHistogramCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramMetric("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 9, 10} {
		h.Observe(v)
	}
	out := renderString(t, r)
	wantLines := []string{
		"# TYPE lat histogram\n",
		`lat_bucket{le="1"} 1` + "\n",
		`lat_bucket{le="2"} 3` + "\n",
		`lat_bucket{le="4"} 4` + "\n",
		`lat_bucket{le="+Inf"} 6` + "\n",
		"lat_sum 25.7\n",
		"lat_count 6\n",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("histogram rendering missing %q in:\n%s", want, out)
		}
	}
	// Cumulativity invariants: buckets never decrease, +Inf == count.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts must be cumulative (non-decreasing): %q after %d", line, prev)
		}
		prev = v
	}
	if prev != 6 {
		t.Fatalf("+Inf bucket %d must equal count 6", prev)
	}
}

func TestPrometheusHistogramWithLabels(t *testing.T) {
	r := NewRegistry()
	r.HistogramMetric("d", "", []float64{1}, "shard", "2").Observe(0.5)
	out := renderString(t, r)
	for _, want := range []string{
		`d_bucket{shard="2",le="1"} 1`,
		`d_bucket{shard="2",le="+Inf"} 1`,
		`d_sum{shard="2"} 0.5`,
		`d_count{shard="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled histogram missing %q in:\n%s", want, out)
		}
	}
}
