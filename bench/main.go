// Command bench is the repository's campaign benchmark. It runs one
// workload for a fixed wall-clock window, checks the program's
// outputs, and prints every metric by name and unit as the last line
// of standard output:
//
//	bash bench/run.sh --workload drain --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -compare A.ndjson B.ndjson
//
// --trace 1 replaces the timed window with a traced replay through the
// same public calls the program makes and prints per-layer metrics
// instead. README.md lists the workloads, the metrics and what each
// layer should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// deadline bounds a whole run, which must end within 180 s; every wait
// on fleetd is bounded well below it.
const deadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the whole run failed: every attempted trial counts.
func (r *result) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	r.Correct = false
	r.Failed = r.Attempted
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	record   string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", pinSeed, "seed every workload input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced replay printing per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.record, "record", "", "also append this run (workload, seed, host, result) as one line to this NDJSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two run sets: bench -compare A.ndjson B.ndjson")
	flag.Parse()

	if o.compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two run-set files")
			os.Exit(2)
		}
		os.Exit(compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	os.Exit(run(w, o))
}

// run measures one workload from the repository root and prints the
// result line; the exit code is 0 only when every output checked.
func run(w *workloadSpec, o options) int {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		seed:     o.seed,
		window:   time.Duration(o.seconds) * time.Second,
		dir:      filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		traceOut: filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.ndjson", w.name, o.seed)),
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	if w.service {
		bin := filepath.Join(build, "bin")
		e.start = fleetdStarter(filepath.Join(bin, "fleetd"), filepath.Join(bin, "fleetrun"), filepath.Join(e.dir, "fleetd"))
		if err := w.prepareService(e); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
	}
	var res *result
	if o.trace == 1 {
		res, err = w.traced(e)
	} else {
		res, err = w.measure(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if o.record != "" {
		if err := appendRecord(o, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -record: %v\n", err)
			return 1
		}
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// host describes the machine a run was recorded on.
type host struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one line of a run-set file, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
}

func appendRecord(o options, res *result) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: thisHost(), Result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
