// Command fleetd is the campaign service: a long-running HTTP daemon
// that accepts campaign submissions, plans each into replication-range
// shards, executes the shards as supervised workers — in-process
// goroutines by default, or re-exec'd fleetrun processes with -exec —
// with heartbeats, deadlines and bounded retry-with-backoff, and
// serves the merged result (internal/fleet/shard).
//
//	go run ./cmd/fleetd -addr 127.0.0.1:8080 -dir /tmp/fleetd
//
// API:
//
//	POST /campaigns                submit {"campaign":…,"seed":…,"shards":…,"faults":…}
//	                               → 202 {id,…}; 429 + Retry-After when the queue is full;
//	                               503 while draining
//	GET  /campaigns                list submissions
//	GET  /campaigns/{id}           status, including per-shard supervision state
//	GET  /campaigns/{id}/results   the canonical result JSON — byte-identical to a
//	                               1-process `fleetrun -json` of the same (campaign, seed)
//	GET  /campaigns/{id}/stream    NDJSON: merged scenario results as coverage completes
//	GET  /healthz                  structured state: accepting|draining, queue depth,
//	                               running campaigns, active shards
//	GET  /metrics                  Prometheus text: fleetd_* service counters, shard_*
//	                               supervision counters, fleet_* trial counters
//	GET  /debug/pprof/             runtime profiles; mounted only with -pprof
//
// A dead or wedged shard (no heartbeat progress) is killed and
// relaunched from its own checkpoint sidecar with exponential
// backoff; when the retry budget is spent the shard's missing trials
// degrade to counted per-scenario failures instead of failing the
// campaign. SIGTERM/SIGINT drains gracefully: admission stops (503),
// in-flight shards checkpoint and stop, and the process exits with
// the fleetrun exit-code contract — 0 when idle, 3 when the drain
// interrupted admitted work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet/shard"
)

// Exit codes, matching fleetrun's contract.
const (
	exitErr         = 1
	exitInterrupted = 3
)

// HTTP server bounds: a request's header must arrive within
// readHeaderTimeout and the whole request (a submission body is at
// most 1 MiB) within readTimeout; a keep-alive connection idle for
// idleTimeout is closed.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		dir         = flag.String("dir", "", "working root for per-campaign sidecars and heartbeats (default: a temp dir)")
		queueDepth  = flag.Int("queue", shard.DefaultQueueDepth, "campaign queue bound; a full queue answers 429 + Retry-After")
		concurrency = flag.Int("concurrency", 1, "campaigns run at once (shards within a campaign always run concurrently)")
		shards      = flag.Int("shards", shard.DefaultShards, "default shard count for submissions that do not set one")
		workers     = flag.Int("workers", 0, "fleet worker goroutines per shard attempt (0 = GOMAXPROCS)")
		execBin     = flag.String("exec", "", "run shards as re-exec'd worker processes using this fleetrun binary (default: in-process)")
		every       = flag.Int("every", 0, "shard checkpoint cadence in completed trials (0 = every trial)")
		hbTimeout   = flag.Duration("heartbeat-timeout", shard.DefaultHeartbeatTimeout, "kill and retry a shard whose heartbeat stalls this long")
		deadline    = flag.Duration("deadline", 0, "per-attempt wall-clock bound (0 = unbounded)")
		retries     = flag.Int("retries", shard.DefaultShardRetries, "shard relaunch budget before its missing trials degrade to counted failures")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long a SIGTERM drain waits for in-flight shards to checkpoint")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof (runtime profiles expose internals; off unless asked)")
	)
	flag.Parse()
	os.Exit(run(*addr, *dir, *queueDepth, *concurrency, *shards, *workers, *execBin, *every, *hbTimeout, *deadline, *retries, *drainGrace, *pprofOn))
}

func run(addr, dir string, queueDepth, concurrency, shards_, workers int, execBin string, every int, hbTimeout, deadline time.Duration, retries int, drainGrace time.Duration, pprofOn bool) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	}
	var launcher shard.Launcher
	if execBin != "" {
		if _, err := os.Stat(execBin); err != nil {
			logf("-exec: %v", err)
			return exitErr
		}
		launcher = shard.Exec{Bin: execBin}
	}
	svc, err := shard.NewService(shard.ServiceConfig{
		QueueDepth:       queueDepth,
		Concurrency:      concurrency,
		DefaultShards:    shards_,
		Workers:          workers,
		Dir:              dir,
		Launcher:         launcher,
		CheckpointEvery:  every,
		HeartbeatTimeout: hbTimeout,
		AttemptDeadline:  deadline,
		MaxShardRetries:  retries,
		EnablePprof:      pprofOn,
		Logf:             logf,
	})
	if err != nil {
		logf("%v", err)
		return exitErr
	}

	// The handler is installed before the socket exists, so a signal
	// sent as soon as fleetd answers (or announces its address) drains
	// it instead of killing it with the default action.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logf("%v", err)
		return exitErr
	}
	// The resolved address goes to stdout so scripts binding :0 can
	// find the port.
	fmt.Printf("fleetd: listening on %s\n", ln.Addr())
	// There is deliberately no WriteTimeout: GET /campaigns/{id}/stream
	// holds its NDJSON response open until the campaign ends, however
	// long that is. The read and idle bounds stop a client that sends a
	// request slowly, or never, from holding a connection forever.
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigC:
		logf("%v: draining — admission stopped, in-flight shards checkpointing", sig)
	case err := <-serveErr:
		logf("serve: %v", err)
		return exitErr
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		logf("drain: %v", err)
		_ = srv.Close()
		return exitErr
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	if svc.Interrupted() {
		logf("drained with admitted campaigns interrupted (their shard sidecars are preserved)")
		return exitInterrupted
	}
	logf("drained clean")
	return 0
}
