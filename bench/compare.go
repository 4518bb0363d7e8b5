package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// e2eMetric is an end_to_end entry of BENCHMARK.json.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) (method "exclusive") and
// statistics.median compute them. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// runSet is one file of recorded runs, by workload.
type runSet map[string][]result

func loadRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			set[r.Workload] = append(set[r.Workload], r.Result)
		}
	}
	return set, sc.Err()
}

// compare applies the benchmark's acceptance rules to two run sets, A
// (the parent) and B (the change): per workload and end-to-end metric,
// B's median may be worse than A's by at most the metric's bound; a
// metric whose run-to-run spread (interquartile range over median)
// exceeds the bound on either side is unresolved, unless every run of
// B is better than every run of A. setup_s is judged on its median
// alone: set-ups take microseconds to a second and their spread is
// wide by nature. It returns the exit code: 1 when any metric
// regressed, is unresolved or a run failed its checks.
func compare(out io.Writer, benchmarkPath, pathA, pathB string) int {
	var spec struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	data, err := os.ReadFile(benchmarkPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	a, errA := loadRuns(pathA)
	b, errB := loadRuns(pathB)
	for _, e := range []error{err, errA, errB} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", e)
			return 2
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA q1\tA median\tA q3\tB n\tB q1\tB median\tB q3\tworse by\tbound\tverdict\t")
	code := 0
	for _, w := range workloadNames() {
		ra, rb := a[w], b[w]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if failed(ra) || failed(rb) || len(ra) < 2 || len(rb) < 2 {
			fmt.Fprintf(tw, "%s\t(all)\t\t%d\t\t\t\t%d\t\t\t\t\t\tfailed or too few runs\t\n", w, len(ra), len(rb))
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) != len(ra) || len(vb) != len(rb) {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\t\t\t\t\tmissing\t\n", w, m.Name, m.Unit)
				code = 1
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			sign := 1.0 // worse = larger
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (bm - am) / am
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && ((a3-a1)/am > m.Bound || (b3-b1)/bm > m.Bound):
				verdict = "unresolved"
				if allBetter(va, vb, sign) {
					verdict = "better"
				}
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict == "unresolved" || verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%d\t%.4g\t%.4g\t%.4g\t%+.2f%%\t%.0f%%\t%s\t\n",
				w, m.Name, m.Unit, len(va), a1, am, a3, len(vb), b1, bm, b3, 100*worse, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}

func failed(rs []result) bool {
	for _, r := range rs {
		if !r.Correct || r.Failed > 0 {
			return true
		}
	}
	return false
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && !math.IsNaN(m.Value) {
			v = append(v, m.Value)
		}
	}
	return v
}

// allBetter reports whether every run of B beats every run of A.
func allBetter(va, vb []float64, sign float64) bool {
	for _, x := range va {
		for _, y := range vb {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
