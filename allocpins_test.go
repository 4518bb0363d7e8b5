//go:build !race

package repro

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
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
// Every single-worker row is pinned. The job path of a trial keeps
// its process tables and per-user capacity in slices, not Go maps, so
// its allocations no longer follow each map's random hash seed. The
// multi-worker rows stay report-only: their allocations depend on
// which worker's cluster pool each trial lands in.
var allocPins = []struct {
	row    string
	allocs func(testing.TB) float64
	want   float64
}{
	{"E1ProcScan/baseline", perOp(func(tb testing.TB) func() { return e1ProcScan(tb, core.BaselineProfile().MustConfig()) }), 1},
	{"E1ProcScan/enhanced", perOp(func(tb testing.TB) func() { return e1ProcScan(tb, core.Enhanced()) }), 1},
	{"E2CVEProbe", perOp(e2CVEProbe), 0},
	{"E3Squeue/baseline", perOp(func(tb testing.TB) func() { return e3Squeue(tb, core.BaselineProfile().MustConfig()) }), 659},
	{"E3Squeue/enhanced", perOp(func(tb testing.TB) func() { return e3Squeue(tb, core.Enhanced()) }), 203},
	{"E4Policies/shared", perDrain(e4Cluster, sched.PolicyShared), 172},
	{"E4Policies/exclusive", perDrain(e4Cluster, sched.PolicyExclusive), 116},
	{"E4Policies/user-wholenode", perDrain(e4Cluster, sched.PolicyUserWholeNode), 142},
	{"E4XLCampaign/shared", perDrain(e4XLCluster, sched.PolicyShared), 1032},
	{"E4XLCampaign/exclusive", perDrain(e4XLCluster, sched.PolicyExclusive), 647},
	{"E4XLCampaign/user-wholenode", perDrain(e4XLCluster, sched.PolicyUserWholeNode), 799},
	// The shell a login spawns comes from the table's recycled storage:
	// the op rewinds the table to its mark, as a trial's Reset does.
	{"E5SSHGate", perOp(e5SSHGate), 0},
	{"E6FSMatrix/baseline", perOp(func(tb testing.TB) func() { return e6FSMatrix(tb, core.BaselineProfile().MustConfig()) }), 4},
	{"E6FSMatrix/enhanced", perOp(func(tb testing.TB) func() { return e6FSMatrix(tb, core.Enhanced()) }), 4},
	{"E7UBFMatrix/same-user-accept", perOp(func(tb testing.TB) func() { return e7UBFVerdict(tb, true) }), 2},
	{"E7UBFMatrix/cross-user-deny", perOp(func(tb testing.TB) func() { return e7UBFVerdict(tb, false) }), 2},
	{"E8UBFOverhead/setup-no-ubf", perOp(func(tb testing.TB) func() { return e8Setup(tb, false, false) }), 2},
	{"E8UBFOverhead/setup-ubf-nocache", perOp(func(tb testing.TB) func() { return e8Setup(tb, true, false) }), 2},
	{"E8UBFOverhead/setup-ubf-cache", perOp(func(tb testing.TB) func() { return e8Setup(tb, true, true) }), 2},
	{"E8UBFOverhead/established-send-no-ubf", perOp(func(tb testing.TB) func() { return e8Send(tb, false) }), 1},
	{"E8UBFOverhead/established-send-ubf", perOp(func(tb testing.TB) func() { return e8Send(tb, true) }), 1},
	{"E9GPUResidue", perOp(e9GPUResidue), 5},
	{"E10Residual", perOp(e10Residual), 1},
	{"E11Portal", perOp(e11Portal), 5},
	{"E12Container/inside-container", perOp(func(tb testing.TB) func() { return e12Read(tb, true) }), 2},
	{"E12Container/bare-host", perOp(func(tb testing.TB) func() { return e12Read(tb, false) }), 2},
	{"E13PPSComparison/pps-range-rule", perOp(func(tb testing.TB) func() { return e13Dial(tb, false) }), 2},
	{"E13PPSComparison/ubf", perOp(func(tb testing.TB) func() { return e13Dial(tb, true) }), 2},
	{"E14CryptoMPI/plain-ubf-datapath", perOp(func(tb testing.TB) func() { return e14Datapath(tb, false) }), 1},
	{"E14CryptoMPI/encrypted-mpi-datapath", perOp(func(tb testing.TB) func() { return e14Datapath(tb, true) }), 5},
	{"E15MitigationTax", perOp(e15MitigationTax), 0},
	{"DeniedProbe/vfs-search", perOp(deniedVFSSearch), 1},
	{"DeniedProbe/ubf-dial", perOp(func(tb testing.TB) func() { return e7UBFVerdict(tb, false) }), 2},
	{"DeniedProbe/gpu-read", perOp(deniedGPURead), 2},
	{"DeniedProbe/pam-slurm", perOp(deniedPAMSlurm), 2},
	{"DeniedProbe/portal-forward", perOp(deniedPortalForward), 3},
	{"DeniedProbe/container-admission", perOp(deniedContainerRun), 1},
	{"FleetCampaign/1w", perOp(func(tb testing.TB) func() { return fleetCampaign(tb, fleet.PresetE4PolicyGrid, 1) }), 2504},
	{"E16Ablation", perOp(e16Ablation), 12477},
	{"E17Campaign/1w", perOp(func(tb testing.TB) func() { return fleetCampaign(tb, fleet.PresetE17RedTeam, 1) }), 14395},
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
