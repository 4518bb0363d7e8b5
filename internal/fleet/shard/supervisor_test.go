package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// cleanJSON is the 1-process fleet.Run baseline every supervised run
// is compared against, byte for byte.
func cleanJSON(t *testing.T, c fleet.Campaign, seed uint64) []byte {
	t.Helper()
	res, err := fleet.Run(c, fleet.Options{Workers: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func superviseJSON(t *testing.T, c fleet.Campaign, opt Options) []byte {
	t.Helper()
	res, err := Supervise(c, opt)
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The tentpole acceptance criterion, in-process: a supervised N-shard
// campaign under an active shard-level fault plan — abrupt kill,
// heartbeat blackhole, slow shard — produces merged JSON
// byte-identical to a clean 1-process run. Kill and blackhole force a
// retry that resumes from the shard's own journal; slow proves a
// shard that still heartbeats is left alone.
func TestSupervisedByteIdenticalUnderChaos(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	clean := cleanJSON(t, camp, 7)
	for name, plan := range map[string]*fleet.FaultPlan{
		"kill shard":      {Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1}}},
		"blackhole shard": {Shards: []fleet.ShardFault{{Shard: 1, Mode: fleet.ShardBlackhole, AfterTrials: 1}}},
		"slow shard":      {Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardSlow, DelayMS: 20}}},
		"kill both": {Shards: []fleet.ShardFault{
			{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1},
			{Shard: 1, Mode: fleet.ShardKill, AfterTrials: 2},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			var status Status
			got := superviseJSON(t, camp, Options{
				Shards: 2, Seed: 7, Dir: t.TempDir(),
				Faults:           plan,
				HeartbeatTimeout: 1500 * time.Millisecond,
				Status:           &status,
				Logf:             t.Logf,
			})
			if !bytes.Equal(got, clean) {
				t.Fatalf("supervised bytes differ from the clean 1-process run:\n%s\nvs\n%s", got, clean)
			}
			for _, st := range status.Snapshot() {
				if st.State != "done" {
					t.Errorf("shard %d ended %q, want done", st.Shard, st.State)
				}
			}
		})
	}
}

// A slow-but-heartbeating shard must never be killed: its first and
// only attempt completes. This is the line between "slow" and
// "wedged" the heartbeat protocol draws.
func TestSlowShardNotRetried(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	var status Status
	superviseJSON(t, camp, Options{
		Shards: 2, Seed: 7, Dir: t.TempDir(),
		Faults:           &fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardSlow, DelayMS: 60}}},
		HeartbeatTimeout: time.Second,
		Status:           &status,
	})
	if st := status.Snapshot()[0]; st.Attempt != 1 {
		t.Fatalf("slow shard was relaunched (attempt %d): slowness was mistaken for wedging", st.Attempt)
	}
}

// Retry-budget exhaustion degrades instead of aborting: a shard whose
// kill fault fires on every attempt, with retries disabled, leaves
// its unfinished trials as counted per-scenario failures while every
// trial it DID checkpoint — and every sibling scenario — is kept with
// statistics identical to the clean run's.
func TestShardRetryExhaustionDegrades(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	var cleanRes fleet.CampaignResult
	if err := json.Unmarshal(cleanJSON(t, camp, 7), &cleanRes); err != nil {
		t.Fatal(err)
	}
	// 2 shards over 2 scenarios × 3 reps: shard 0 owns replication 0
	// of each scenario. Kill after its first completion on every
	// attempt, no retries → scenario 0's rep 0 is checkpointed,
	// scenario 1's rep 0 never runs. One worker per shard makes that
	// first completion scenario 0's: with more, shard 0's two trials
	// race to finish first.
	var status Status
	res, err := Supervise(camp, Options{
		Shards: 2, Seed: 7, Workers: 1, Dir: t.TempDir(),
		Faults:          &fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1, Attempts: 99}}},
		MaxShardRetries: -1,
		Logf:            t.Logf,
		Status:          &status,
	})
	if err != nil {
		t.Fatalf("a degraded shard must not fail the campaign: %v", err)
	}
	if st := status.Snapshot()[0]; st.State != "degraded" {
		t.Fatalf("shard 0 ended %q, want degraded", st.State)
	}
	for i, s := range res.Scenarios {
		spec := camp.Scenarios[i]
		if s.Replications+s.Failures != spec.Replications {
			t.Errorf("scenario %q: replications %d + failures %d != configured %d",
				s.Name, s.Replications, s.Failures, spec.Replications)
		}
	}
	// Scenario 0: all three reps really ran (rep 0 from the killed
	// shard's journal) — bit-for-bit the clean aggregate.
	got0, _ := json.Marshal(res.Scenarios[0])
	want0, _ := json.Marshal(cleanRes.Scenarios[0])
	if !bytes.Equal(got0, want0) {
		t.Errorf("scenario 0 differs from clean despite full coverage:\n%s\nvs\n%s", got0, want0)
	}
	// Scenario 1: rep 0 degraded to a counted failure.
	if s := res.Scenarios[1]; s.Failures != 1 || s.Replications != camp.Scenarios[1].Replications-1 {
		t.Errorf("scenario 1: replications %d failures %d, want %d and 1",
			s.Replications, s.Failures, camp.Scenarios[1].Replications-1)
	}
}

// Streamed scenario results arrive in ascending scenario order —
// trial-index order — each exactly once, and byte-equal to the final
// result's scenarios.
func TestStreamingScenarioOrder(t *testing.T) {
	camp := fleet.MustPreset("e4-policy-grid")
	type ev struct {
		i    int
		data []byte
	}
	var events []ev
	res, err := Supervise(camp, Options{
		Shards: 3, Seed: 11, Dir: t.TempDir(),
		OnScenario: func(i int, sr *fleet.ScenarioResult) {
			data, _ := json.Marshal(sr)
			events = append(events, ev{i, data})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(camp.Scenarios) {
		t.Fatalf("streamed %d scenarios, want %d", len(events), len(camp.Scenarios))
	}
	for i, e := range events {
		if e.i != i {
			t.Fatalf("event %d carries scenario %d: not in ascending order", i, e.i)
		}
		want, _ := json.Marshal(res.Scenarios[i])
		if !bytes.Equal(e.data, want) {
			t.Errorf("streamed scenario %d differs from the final result", i)
		}
	}
}

// Drain stops a running campaign gracefully: shards checkpoint, the
// supervisor reports *DrainedError, and the journals in Dir carry the
// completed trials.
func TestSuperviseDrain(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	dir := t.TempDir()
	drain := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(drain)
	}()
	_, err := Supervise(camp, Options{
		Shards: 2, Seed: 7, Dir: dir,
		// Slow trials on both shards so the drain lands mid-campaign.
		Faults: &fleet.FaultPlan{Shards: []fleet.ShardFault{
			{Shard: 0, Mode: fleet.ShardSlow, DelayMS: 40},
			{Shard: 1, Mode: fleet.ShardSlow, DelayMS: 40},
		}},
		Drain: drain,
		Logf:  t.Logf,
	})
	var de *DrainedError
	if err == nil {
		// The campaign may legitimately win the race and finish before
		// the drain lands; only a non-drain error is a failure.
		return
	}
	if !errors.As(err, &de) {
		t.Fatalf("want DrainedError, got %v", err)
	}
	if de.Dir != dir {
		t.Errorf("DrainedError names %q, want %q", de.Dir, dir)
	}
}

// A journal already in Dir when the campaign starts is read before
// attempt 1: a valid one for this campaign resumes, so the shard runs
// fewer new trials than it owns; one from another seed, or garbage, is
// ignored and the shard starts fresh. Every case merges to the clean
// bytes on first attempts only.
func TestSuperviseExistingJournals(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	clean := cleanJSON(t, camp, 7)
	plan, err := Plan(camp, 2)
	if err != nil {
		t.Fatal(err)
	}
	// shardJournal is shard 0's complete journal at the given seed.
	shardJournal := func(seed uint64) []byte {
		path := filepath.Join(t.TempDir(), "shard-0.ck.json")
		sh := fleet.ShardRun{Index: 0, Count: 2, Ranges: plan[0].Ranges}
		if _, _, err := fleet.RunShard(camp, fleet.Options{Workers: 1, Seed: seed, CheckpointPath: path, CheckpointEvery: 1}, sh); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	own := shardJournal(7)
	header := bytes.IndexByte(own, '\n') + 1
	oneTrial := own[:header+bytes.IndexByte(own[header:], '\n')+1]
	for name, tc := range map[string]struct {
		journal  []byte
		restored int
	}{
		"same campaign": {oneTrial, 1},
		"another seed":  {shardJournal(8), 0},
		"garbage":       {[]byte("not json\n"), 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "shard-0.ck.json"), tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			var status Status
			got := superviseJSON(t, camp, Options{Shards: 2, Seed: 7, Dir: dir, Metrics: reg, Status: &status, Logf: t.Logf})
			if !bytes.Equal(got, clean) {
				t.Fatalf("supervised bytes differ from the clean 1-process run:\n%s\nvs\n%s", got, clean)
			}
			for _, st := range status.Snapshot() {
				if st.State != "done" || st.Attempt != 1 {
					t.Errorf("shard %d ended %q on attempt %d, want done on attempt 1", st.Shard, st.State, st.Attempt)
				}
			}
			if n := reg.Counter("fleet_trials_restored_total", "").Value(); n != int64(tc.restored) {
				t.Errorf("fleet_trials_restored_total = %d, want %d", n, tc.restored)
			}
			if n := reg.Counter("fleet_trials_completed_total", "").Value(); n != int64(camp.Trials()-tc.restored) {
				t.Errorf("fleet_trials_completed_total = %d, want %d", n, camp.Trials()-tc.restored)
			}
		})
	}
}

// A drain that fired before Supervise starts launches nothing: no
// attempt is counted and every shard ends drained.
func TestSuperviseDrainBeforeStart(t *testing.T) {
	drain := make(chan struct{})
	close(drain)
	reg := obs.NewRegistry()
	var status Status
	_, err := Supervise(fleet.MustPreset("smoke"), Options{Shards: 2, Seed: 7, Dir: t.TempDir(), Drain: drain, Metrics: reg, Status: &status})
	var de *DrainedError
	if !errors.As(err, &de) {
		t.Fatalf("want DrainedError, got %v", err)
	}
	if n := reg.Counter("shard_attempts_total", "").Value(); n != 0 {
		t.Errorf("shard_attempts_total = %d, want 0", n)
	}
	for _, st := range status.Snapshot() {
		if st.State != "drained" {
			t.Errorf("shard %d ended %q, want drained", st.Shard, st.State)
		}
	}
}

// Supervise leaves no goroutine behind, whether the campaign
// completes, degrades or drains.
func TestSuperviseLeaksNoGoroutine(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	slow := &fleet.FaultPlan{Shards: []fleet.ShardFault{
		{Shard: 0, Mode: fleet.ShardSlow, DelayMS: 40},
		{Shard: 1, Mode: fleet.ShardSlow, DelayMS: 40},
	}}
	for name, opt := range map[string]Options{
		"complete": {},
		"degrade": {
			Faults:          &fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1, Attempts: 99}}},
			MaxShardRetries: -1,
		},
		"drain": {Faults: slow},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			opt.Shards, opt.Seed, opt.Dir, opt.Logf = 2, 7, t.TempDir(), t.Logf
			if opt.Faults == slow {
				drain := make(chan struct{})
				opt.Drain = drain
				time.AfterFunc(50*time.Millisecond, func() { close(drain) })
			}
			if _, err := Supervise(camp, opt); err != nil {
				var de *DrainedError
				if !errors.As(err, &de) {
					t.Fatal(err)
				}
			}
			// Attempt goroutines close Done just before they return.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Supervise, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
