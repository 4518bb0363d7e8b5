package fleet

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Every way a run can end leaves no goroutine behind: the workers and
// anything else execute starts are gone once Run or RunShard returns.
func TestRunLeaksNoGoroutine(t *testing.T) {
	camp := smokeCampaign()
	whole := ShardRun{Index: 0, Count: 1, Ranges: make([]RepRange, len(camp.Scenarios))}
	for i, s := range camp.Scenarios {
		whole.Ranges[i] = RepRange{Hi: s.Replications}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) error
		want func(error) bool
	}{
		{"complete", func(t *testing.T) error {
			_, err := Run(camp, Options{Workers: 2, Seed: 7})
			return err
		}, func(err error) bool { return err == nil }},
		{"pre-fired interrupt", func(t *testing.T) error {
			pre := make(chan struct{})
			close(pre)
			_, err := Run(camp, Options{Workers: 2, Seed: 7, Interrupt: pre})
			return err
		}, isInterrupted},
		{"kill after trials", func(t *testing.T) error {
			_, err := Run(camp, Options{Workers: 2, Seed: 7, Faults: &FaultPlan{KillAfterTrials: 2}})
			return err
		}, isInterrupted},
		{"shard kill", func(t *testing.T) error {
			_, _, err := RunShard(camp, Options{Workers: 2, Seed: 7, CheckpointPath: filepath.Join(t.TempDir(), "ck.json"),
				Faults: &FaultPlan{Shards: []ShardFault{{Shard: 0, Mode: ShardKill, AfterTrials: 1}}}}, whole)
			return err
		}, func(err error) bool { return errors.Is(err, ErrShardKilled) }},
		{"blackhole", func(t *testing.T) error {
			release := make(chan struct{})
			time.AfterFunc(50*time.Millisecond, func() { close(release) })
			_, _, err := RunShard(camp, Options{Workers: 2, Seed: 7, CheckpointPath: filepath.Join(t.TempDir(), "ck.json"), Interrupt: release,
				Faults: &FaultPlan{Shards: []ShardFault{{Shard: 0, Mode: ShardBlackhole, AfterTrials: 1}}}}, whole)
			return err
		}, func(err error) bool { return errors.Is(err, ErrShardWedged) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := tc.run(t); !tc.want(err) {
				t.Fatalf("unexpected result: %v", err)
			}
			// A worker may still be leaving its range loop when the run
			// returns; poll with a deadline rather than demand it at once.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func isInterrupted(err error) bool {
	var ie *InterruptedError
	return errors.As(err, &ie)
}

// An interrupt mid-run drops every queued trial: only the trial that
// fired it and those already started on the workers complete, the
// final checkpoint holds exactly them, and it resumes to the clean
// bytes.
func TestInterruptDropsQueuedTrials(t *testing.T) {
	camp := e16AblationDrainCampaign()
	const workers = 2
	clean := runJSON(t, camp, Options{Workers: workers, Seed: 7})
	path := filepath.Join(t.TempDir(), "ck.json")
	stop := make(chan struct{})
	var once sync.Once
	_, err := Run(camp, Options{Workers: workers, Seed: 7, CheckpointPath: path, Interrupt: stop,
		Progress: func(int) { once.Do(func() { close(stop) }) },
		Faults:   &FaultPlan{Delays: []WorkerDelay{{Worker: 0, PerTrialMS: 20}, {Worker: 1, PerTrialMS: 20}}},
	})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("want InterruptedError, got %v", err)
	}
	t.Logf("interrupted after %d/%d trials", ie.Completed, ie.Total)
	if max := 1 + 2*workers; ie.Completed > max {
		t.Fatalf("interrupt at the first completion let %d trials complete, want at most %d", ie.Completed, max)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed() != ie.Completed {
		t.Fatalf("journal holds %d trials, InterruptedError says %d", ck.Completed(), ie.Completed)
	}
	resumed := runJSON(t, camp, Options{Workers: workers, Seed: 7, ResumeFrom: ck})
	if !bytes.Equal(resumed, clean) {
		t.Fatal("resumed bytes differ from the clean run")
	}
}
