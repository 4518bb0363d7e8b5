package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// AttemptSpec is everything a launcher needs to run one shard
// attempt. The campaign travels both ways — as a value for in-process
// workers and as a file path for re-exec'd ones — so one supervisor
// drives either launcher without caring which.
type AttemptSpec struct {
	Campaign     fleet.Campaign
	CampaignPath string // campaign JSON on disk (exec mode)
	Seed         uint64
	Workers      int // per-attempt fleet worker goroutines; 0 = GOMAXPROCS

	Shard   Assignment
	Shards  int
	Attempt int // 1-based supervisor attempt; keys shard faults

	// CheckpointPath is the shard's checkpoint journal: its periodic
	// recovery state, its final result artifact, and — by growing —
	// its heartbeat.
	CheckpointPath  string
	CheckpointEvery int
	// Resume, when non-nil, restores the previous attempt's completed
	// trials (exec workers are passed the journal path instead and
	// load it themselves).
	Resume *fleet.Checkpoint

	Faults     *fleet.FaultPlan
	FaultsPath string // fault plan JSON on disk (exec mode)

	// FailuresPath, when non-empty, is where an exec worker leaves its
	// structured TrialFailure artifact for the supervisor to collect.
	FailuresPath string

	// Metrics, when non-nil, receives the attempt's fleet_* trial
	// counters. Only the in-process launcher can honor it — a registry
	// cannot cross the exec boundary, so exec attempts report only the
	// supervisor-side shard_* counters.
	Metrics *obs.Registry
}

// Attempt is one running shard attempt under supervision. Err and
// Failures are valid only after Done is closed. Liveness is not part
// of the interface: the supervisor watches the attempt's journal grow.
type Attempt interface {
	Done() <-chan struct{}
	Err() error
	Failures() []fleet.TrialFailure
	// Kill stops the attempt abruptly (SIGKILL for exec workers): no
	// final checkpoint beyond what periodic writes already persisted.
	Kill()
	// Drain stops the attempt gracefully (SIGTERM for exec workers):
	// in-flight trials finish and a final checkpoint is written.
	Drain()
}

// Launcher starts shard attempts. InProc runs them as goroutines in
// this process; Exec re-execs the fleetrun binary in shard mode. Both
// satisfy the same supervision contract: a checkpoint journal that
// grows while the attempt is alive and is its result, Kill/Drain
// semantics as above.
type Launcher interface {
	Launch(spec AttemptSpec) (Attempt, error)
}

// InProc runs shard attempts as goroutines. This is the default
// launcher — no binary to build, runs under the race detector — and
// the degenerate "worker process" whose kill is a soft abort
// (ErrShardKilled) rather than a real SIGKILL.
type InProc struct{}

type inprocAttempt struct {
	done  chan struct{}
	err   error
	fails []fleet.TrialFailure

	stop     chan struct{}
	stopOnce sync.Once
}

// Launch starts the attempt goroutine.
func (InProc) Launch(spec AttemptSpec) (Attempt, error) {
	a := &inprocAttempt{
		done: make(chan struct{}),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		_, fails, err := fleet.RunShard(spec.Campaign, fleet.Options{
			Workers:         spec.Workers,
			Seed:            spec.Seed,
			CheckpointPath:  spec.CheckpointPath,
			CheckpointEvery: spec.CheckpointEvery,
			ResumeFrom:      spec.Resume,
			Interrupt:       a.stop,
			Faults:          spec.Faults,
			Metrics:         spec.Metrics,
		}, fleet.ShardRun{
			Index:   spec.Shard.Shard,
			Count:   spec.Shards,
			Attempt: spec.Attempt,
			Ranges:  spec.Shard.Ranges,
		})
		a.err, a.fails = err, fails
	}()
	return a, nil
}

func (a *inprocAttempt) Done() <-chan struct{}          { return a.done }
func (a *inprocAttempt) Err() error                     { return a.err }
func (a *inprocAttempt) Failures() []fleet.TrialFailure { return a.fails }

// Kill and Drain are the same mechanism in process: trip Interrupt.
// For a live shard that is a graceful drain (final checkpoint); for a
// wedged one it releases the linger and surfaces ErrShardWedged; a
// soft-killed shard has already stopped recording either way.
func (a *inprocAttempt) Kill()  { a.stopOnce.Do(func() { close(a.stop) }) }
func (a *inprocAttempt) Drain() { a.Kill() }

// Exec re-execs the fleetrun binary in shard mode (-shard i/n), the
// production shape: a real process whose SIGKILL is abrupt death.
type Exec struct {
	// Bin is the fleetrun binary path.
	Bin string
	// Stderr receives the worker's stderr; nil means this process's.
	Stderr io.Writer
}

type execAttempt struct {
	cmd   *exec.Cmd
	done  chan struct{}
	err   error
	fails []fleet.TrialFailure
}

// Launch starts the worker process.
func (e Exec) Launch(spec AttemptSpec) (Attempt, error) {
	if spec.CampaignPath == "" {
		return nil, fmt.Errorf("shard: exec launcher needs AttemptSpec.CampaignPath")
	}
	args := []string{
		"-campaign", spec.CampaignPath,
		"-seed", strconv.FormatUint(spec.Seed, 10),
		"-shard", fmt.Sprintf("%d/%d", spec.Shard.Shard, spec.Shards),
		"-shard-attempt", strconv.Itoa(spec.Attempt),
		"-checkpoint", spec.CheckpointPath,
	}
	if spec.CheckpointEvery > 0 {
		args = append(args, "-every", strconv.Itoa(spec.CheckpointEvery))
	}
	if spec.Workers > 0 {
		args = append(args, "-workers", strconv.Itoa(spec.Workers))
	}
	if spec.Resume != nil {
		// The worker reloads its own journal; Resume's presence just
		// says "it exists and validated".
		args = append(args, "-resume", spec.CheckpointPath)
	}
	if spec.FaultsPath != "" {
		args = append(args, "-chaos", spec.FaultsPath)
	}
	if spec.FailuresPath != "" {
		args = append(args, "-failures", spec.FailuresPath)
	}
	cmd := exec.Command(e.Bin, args...)
	cmd.Stderr = e.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	a := &execAttempt{cmd: cmd, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.err = execExitError(cmd.Wait())
		if a.err == nil && spec.FailuresPath != "" {
			a.fails = loadFailures(spec.FailuresPath)
		}
	}()
	return a, nil
}

// execExitError maps the worker's exit to the supervision contract:
// 0 is success, the PR-6 interrupted/timeout codes mean "checkpointed
// and stopped" (retryable from the journal), anything else — including
// a SIGKILL death — is a plain failure.
func execExitError(err error) error {
	if err == nil {
		return nil
	}
	if ee, ok := err.(*exec.ExitError); ok {
		switch ee.ExitCode() {
		case 3, 4:
			return fmt.Errorf("shard worker interrupted (exit %d): checkpointed and stopped", ee.ExitCode())
		}
	}
	return fmt.Errorf("shard worker died: %w", err)
}

// loadFailures reads the worker's failure artifact; a missing or
// unreadable artifact just means no structured ledger (the failures
// were still reported on the worker's stderr).
func loadFailures(path string) []fleet.TrialFailure {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	art, err := fleet.DecodeFailures(f)
	if err != nil {
		return nil
	}
	return art.Failures
}

func (a *execAttempt) Done() <-chan struct{}          { return a.done }
func (a *execAttempt) Err() error                     { return a.err }
func (a *execAttempt) Failures() []fleet.TrialFailure { return a.fails }
func (a *execAttempt) Kill()                          { _ = a.cmd.Process.Kill() }
func (a *execAttempt) Drain()                         { _ = a.cmd.Process.Signal(syscall.SIGTERM) }
