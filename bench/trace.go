package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Name is "layer.operation";
// spans named "run.*" are the benchmark's own phases and trials,
// whose self time no layer accounts for. N counts the operations the
// span covers (calls, users, jobs, ticks).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Trial  int    `json:"trial"` // -1 outside trials
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so one code path serves traced and untraced runs.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of open spans, innermost last
	trial int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), trial: -1} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: t.trial, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span; n is the operations it covered.
func (t *tracer) end(n int64) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.spans[i].N = n
}

// setTrial tags the spans that follow with a trial id; -1 clears it.
func (t *tracer) setTrial(id int) {
	if t != nil {
		t.trial = id
	}
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count       int
	total, self int64 // ns
	n           int64
}

// profile is the trace folded by span name and by layer.
type profile struct {
	byName  map[string]*spanStats
	byLayer map[string]int64 // self ns
	wall    int64            // sum of root span durations
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// fold computes self times: a span's duration minus the part its
// children cover. Spans are serial, so children never overlap.
func (t *tracer) fold() profile {
	p := profile{byName: make(map[string]*spanStats), byLayer: make(map[string]int64)}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		self := d - child[s.ID]
		st := p.byName[s.Name]
		if st == nil {
			st = &spanStats{}
			p.byName[s.Name] = st
		}
		st.count++
		st.total += d
		st.self += self
		st.n += s.N
		p.byLayer[layerOf(s.Name)] += self
		if s.Parent == 0 {
			p.wall += d
		}
	}
	return p
}

// get returns the stats of a span name, zero when it never ran.
func (p profile) get(name string) spanStats {
	if st := p.byName[name]; st != nil {
		return *st
	}
	return spanStats{}
}

// perCall is the mean duration per span in unit; perOp per counted
// operation.
func (p profile) perCall(name string, unit time.Duration) float64 {
	st := p.get(name)
	return ratio(float64(st.total), float64(st.count)*float64(unit))
}

func (p profile) perOp(name string, unit time.Duration) float64 {
	st := p.get(name)
	return ratio(float64(st.total), float64(st.n)*float64(unit))
}

// selfFrac is a layer's share of the traced wall time.
func (p profile) selfFrac(layer string) float64 {
	return ratio(float64(p.byLayer[layer]), float64(p.wall))
}

// coverage is the share of the traced wall time some layer accounts
// for.
func (p profile) coverage() float64 {
	return 1 - p.selfFrac("run")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers are the repository modules the benchmark attributes time to.
var layers = []string{"core", "ids", "workload", "sched", "attack", "fleet", "checkpoint", "shard", "fleetd"}

// setLayerMetrics reports every layer's share of the traced wall, the
// trace's coverage, and the spans-derived per-operation times.
func setLayerMetrics(res *result, p profile) {
	for _, l := range layers {
		res.set(l+".self_frac", p.selfFrac(l), "ratio")
	}
	res.set("trace.coverage", p.coverage(), "ratio")
	res.set("core.new_ms", p.perCall("core.new", time.Millisecond), "ms")
	res.set("core.reset_us", p.perCall("core.reset", time.Microsecond), "us")
	res.set("ids.adduser_us", p.perOp("ids.adduser", time.Microsecond), "us")
	res.set("workload.build_us", p.perCall("workload.build", time.Microsecond), "us")
	res.set("sched.submit_ns_per_job", p.perOp("sched.submit", time.Nanosecond), "ns")
	res.set("sched.drain_us", p.perCall("sched.drain", time.Microsecond), "us")
	res.set("sched.ns_per_tick", p.perOp("sched.drain", time.Nanosecond), "ns")
}

// write stores the spans as NDJSON and prints the self-time table.
func (t *tracer) write(path string, table io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t.fold().print(table)
	fmt.Fprintf(table, "trace: %d spans in %s\n", len(t.spans), path)
	return nil
}

func (p profile) print(w io.Writer) {
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return p.byName[names[i]].self > p.byName[names[j]].self })
	fmt.Fprintf(w, "%-22s %9s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	for _, n := range names {
		st := p.byName[n]
		fmt.Fprintf(w, "%-22s %9d %12.3f %12.3f %6.2f%%\n", n, st.count, float64(st.total)/1e6, float64(st.self)/1e6, 100*ratio(float64(st.self), float64(p.wall)))
	}
	fmt.Fprintf(w, "%-22s %9s %12.3f %12s %6.2f%%\n", "wall (coverage)", "", float64(p.wall)/1e6, "", 100*p.coverage())
}
