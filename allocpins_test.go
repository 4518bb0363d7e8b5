//go:build !race

package repro

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// exactAllocs is testing.AllocsPerRun with the collector off. A GC
// between the warm-up and the measured runs empties sync.Pool (fmt's
// printer cache among them), and the refill would count against op.
func exactAllocs(runs int, op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, op)
}

// perOp measures a row whose setup runs once: the allocations of one
// call of the operation build returns.
func perOp(build func(testing.TB) func()) func(testing.TB) float64 {
	return func(tb testing.TB) float64 { return exactAllocs(20, build(tb)) }
}

// perDrain measures a drain row, whose setup runs per operation: the
// allocations of building and draining a cluster, less those of
// building it alone, so the pin is the benchmark's allocs/op.
func perDrain(build func(testing.TB, sched.SharingPolicy) *core.Cluster, pol sched.SharingPolicy) func(testing.TB) float64 {
	return func(tb testing.TB) float64 {
		const runs = 4
		drained := exactAllocs(runs, func() { build(tb, pol).RunAll(100000) })
		return drained - exactAllocs(runs, func() { build(tb, pol) })
	}
}

// allocPins holds the exact allocations per operation of the
// benchmark rows in bench_test.go, measured on the setup each
// benchmark builds. A change that adds or removes an allocation on a
// row's path updates its pin and says why. fleet's
// TestPooledTrialAllocsReduction pins the TrialLifecycle rows per
// trial.
//
// Rows whose count does not repeat stay report-only. Those are the
// drains that pack several jobs per node under the shared and
// user-wholenode policies (E4Policies and E4XLCampaign under those
// two, E16Ablation, FleetCampaign/1w, E17Campaign/1w): a node's
// process table and the scheduler's per-user capacity map then insert
// and delete entries, and when a Go map rehashes depends on its random
// hash seed, so the count moves by a few allocations from run to run.
// The multi-worker rows are report-only too: their allocations depend
// on which worker's cluster pool each trial lands in.
var allocPins = []struct {
	row    string
	allocs func(testing.TB) float64
	want   float64
}{
	{"E1ProcScan/baseline", perOp(func(tb testing.TB) func() { return e1ProcScan(tb, core.Baseline()) }), 1219},
	{"E1ProcScan/enhanced", perOp(func(tb testing.TB) func() { return e1ProcScan(tb, core.Enhanced()) }), 157},
	{"E2CVEProbe", perOp(e2CVEProbe), 0},
	{"E3Squeue/baseline", perOp(func(tb testing.TB) func() { return e3Squeue(tb, core.Baseline()) }), 659},
	{"E3Squeue/enhanced", perOp(func(tb testing.TB) func() { return e3Squeue(tb, core.Enhanced()) }), 203},
	{"E4Policies/exclusive", perDrain(e4Cluster, sched.PolicyExclusive), 119},
	{"E4XLCampaign/exclusive", perDrain(e4XLCluster, sched.PolicyExclusive), 997},
	{"E5SSHGate", perOp(e5SSHGate), 7},
	{"E6FSMatrix/baseline", perOp(func(tb testing.TB) func() { return e6FSMatrix(tb, core.Baseline()) }), 21},
	{"E6FSMatrix/enhanced", perOp(func(tb testing.TB) func() { return e6FSMatrix(tb, core.Enhanced()) }), 23},
	{"E7UBFMatrix/same-user-accept", perOp(func(tb testing.TB) func() { return e7UBFVerdict(tb, true) }), 6},
	{"E7UBFMatrix/cross-user-deny", perOp(func(tb testing.TB) func() { return e7UBFVerdict(tb, false) }), 11},
	{"E8UBFOverhead/setup-no-ubf", perOp(func(tb testing.TB) func() { return e8Setup(tb, false, false) }), 4},
	{"E8UBFOverhead/setup-ubf-nocache", perOp(func(tb testing.TB) func() { return e8Setup(tb, true, false) }), 6},
	{"E8UBFOverhead/setup-ubf-cache", perOp(func(tb testing.TB) func() { return e8Setup(tb, true, true) }), 6},
	{"E8UBFOverhead/established-send-no-ubf", perOp(func(tb testing.TB) func() { return e8Send(tb, false) }), 2},
	{"E8UBFOverhead/established-send-ubf", perOp(func(tb testing.TB) func() { return e8Send(tb, true) }), 2},
	{"E9GPUResidue", perOp(e9GPUResidue), 5},
	{"E10Residual", perOp(e10Residual), 3},
	{"E11Portal", perOp(e11Portal), 13},
	{"E12Container/inside-container", perOp(func(tb testing.TB) func() { return e12Read(tb, true) }), 6},
	{"E12Container/bare-host", perOp(func(tb testing.TB) func() { return e12Read(tb, false) }), 6},
	{"E13PPSComparison/pps-range-rule", perOp(func(tb testing.TB) func() { return e13Dial(tb, false) }), 4},
	{"E13PPSComparison/ubf", perOp(func(tb testing.TB) func() { return e13Dial(tb, true) }), 6},
	{"E14CryptoMPI/plain-ubf-datapath", perOp(func(tb testing.TB) func() { return e14Datapath(tb, false) }), 2},
	{"E14CryptoMPI/encrypted-mpi-datapath", perOp(func(tb testing.TB) func() { return e14Datapath(tb, true) }), 6},
	{"E15MitigationTax", perOp(e15MitigationTax), 0},
}

// TestAllocPins checks each single-worker benchmark row's allocations
// per operation against its exact pin. The race detector allocates on
// its own account and drops sync.Pool entries at random, so the pins
// build only without -race.
func TestAllocPins(t *testing.T) {
	for _, p := range allocPins {
		t.Run(p.row, func(t *testing.T) {
			if got := p.allocs(t); got != p.want {
				t.Errorf("%s allocates %v per op, pinned at %v", p.row, got, p.want)
			}
		})
	}
}
