package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/shard"
	"repro/internal/obs"
)

// workerEnv makes the test binary act as the fleetrun command, so
// shard.Exec can re-exec it as a shard worker.
const workerEnv = "FLEETRUN_TEST_AS_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logWriter routes worker stderr into the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Logf("worker: %s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// The exec launcher under shard faults, with real worker processes: a
// worker that SIGKILLs itself, and one that goes silent while alive,
// both resume from their journals to a clean run's bytes. The silent
// one is found only because its journal stops growing.
func TestExecLauncherChaos(t *testing.T) {
	camp := fleet.MustPreset("smoke")
	clean, err := fleet.Run(camp, fleet.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.JSON()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, "1")
	for _, tc := range []struct {
		name   string
		fault  fleet.ShardFault
		stalls int64
	}{
		{"kill", fleet.ShardFault{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1}, 0},
		{"blackhole", fleet.ShardFault{Shard: 1, Mode: fleet.ShardBlackhole, AfterTrials: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := shard.Supervise(camp, shard.Options{
				Shards: 2, Seed: 7, Workers: 1, Dir: t.TempDir(),
				Launcher:         shard.Exec{Bin: os.Args[0], Stderr: logWriter{t}},
				Faults:           &fleet.FaultPlan{Shards: []fleet.ShardFault{tc.fault}},
				HeartbeatTimeout: 1500 * time.Millisecond,
				Metrics:          reg,
				Logf:             t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("supervised exec bytes differ from the clean run:\n%s\nvs\n%s", got, want)
			}
			if n := reg.Counter("shard_heartbeat_stalls_total", "").Value(); n != tc.stalls {
				t.Errorf("shard_heartbeat_stalls_total = %d, want %d", n, tc.stalls)
			}
			if n := reg.Counter("shard_attempts_total", "").Value(); n != 3 {
				t.Errorf("shard_attempts_total = %d, want 3 (one retry)", n)
			}
		})
	}
}
