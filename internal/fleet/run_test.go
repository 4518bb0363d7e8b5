package fleet

import (
	"bytes"
	"errors"
	"math/rand/v2"
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

// The dispatcher keeps a worker on its scenario while that scenario
// has a trial left, then starts the lowest-indexed scenario nobody has
// started, then joins the scenario with the most trials left; drop
// empties it and counts what it removed. Scenario 1 has no queued
// trial (restored, or outside the range), and the queue ends inside
// scenario 3, as KillAfterTrials cuts it.
func TestDispatcherOrder(t *testing.T) {
	var todo []trialRef
	for si, n := range []int{3, 0, 2, 6, 4} {
		for rep := range n {
			todo = append(todo, trialRef{scenario: si, rep: rep})
		}
	}
	d := newDispatcher(todo[:10], 5)
	claim := func(cur int) trialRef {
		t.Helper()
		k := d.claim(cur)
		if k < 0 {
			t.Fatalf("claim(%d) found no trial", cur)
		}
		return todo[k]
	}
	want := func(got trialRef, si, rep int) {
		t.Helper()
		if got != (trialRef{scenario: si, rep: rep}) {
			t.Fatalf("claimed %+v, want scenario %d replication %d", got, si, rep)
		}
	}
	want(claim(-1), 0, 0) // worker A starts the lowest scenario
	want(claim(-1), 2, 0) // worker B starts the next one with trials
	want(claim(0), 0, 1)  // A stays on its own
	want(claim(2), 2, 1)  // so does B
	want(claim(2), 3, 0)  // B's scenario is done: the lowest unstarted
	want(claim(0), 0, 2)
	want(claim(0), 3, 1) // A's is done and every scenario has started: the most left
	want(claim(3), 3, 2)
	want(claim(3), 3, 3)
	if got := d.drop(); got != 1 {
		t.Fatalf("drop removed %d trials, want 1", got)
	}
	if k := d.claim(3); k >= 0 {
		t.Fatalf("claim after drop returned %+v", todo[k])
	}
	if got := d.drop(); got != 0 {
		t.Fatalf("a second drop removed %d trials", got)
	}

	// The largest remainder picks among started scenarios, the lowest
	// index on a tie.
	d = newDispatcher(todo, 5)
	want(claim(-1), 0, 0)
	want(claim(-1), 2, 0)
	want(claim(-1), 3, 0)
	want(claim(-1), 4, 0)
	want(claim(-1), 3, 1) // 0: 2 left, 2: 1, 3: 5, 4: 3
	want(claim(4), 4, 1)
	want(claim(4), 4, 2)
	want(claim(4), 4, 3)
	want(claim(4), 3, 2) // 0: 2 left, 2: 1, 3: 4
	want(claim(3), 3, 3)
	want(claim(2), 2, 1)
	want(claim(2), 0, 1) // 0: 2 left, 3: 2: the lower index
}

// In a random claim order, a worker leaves a scenario only when no
// trial of it is left, never gets a trial of a scenario it left, and
// the dispatcher hands out each queued trial exactly once.
func TestDispatcherNeverReturns(t *testing.T) {
	camp := e17RedTeamCampaign()
	var todo []trialRef
	for si, s := range camp.Scenarios {
		for rep := range s.Replications + si%4 {
			todo = append(todo, trialRef{scenario: si, rep: rep})
		}
	}
	for workers := 1; workers <= 5; workers++ {
		d := newDispatcher(todo, len(camp.Scenarios))
		rng := rand.New(rand.NewPCG(uint64(workers), 7))
		cur := make([]int, workers)
		left := make([]map[int]bool, workers)
		for w := range cur {
			cur[w], left[w] = -1, map[int]bool{}
		}
		seen := make([]bool, len(todo))
		for active := workers; active > 0; {
			w := rng.IntN(workers)
			if cur[w] == -2 {
				continue
			}
			k := d.claim(cur[w])
			if k < 0 {
				cur[w] = -2
				active--
				continue
			}
			if seen[k] {
				t.Fatalf("workers=%d: trial %+v handed out twice", workers, todo[k])
			}
			seen[k] = true
			si := todo[k].scenario
			if left[w][si] {
				t.Fatalf("workers=%d: worker %d came back to scenario %d", workers, w, si)
			}
			if si != cur[w] && cur[w] >= 0 {
				if d.next[cur[w]] != d.end[cur[w]] {
					t.Fatalf("workers=%d: worker %d left scenario %d with trials left", workers, w, cur[w])
				}
				left[w][cur[w]] = true
			}
			cur[w] = si
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: trial %+v never handed out", workers, todo[k])
			}
		}
	}
}
