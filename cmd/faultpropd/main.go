// Command faultpropd is the campaign service daemon: a long-running HTTP
// server that queues, schedules, checkpoints, and streams fault-injection
// campaigns (see internal/service for the API).
//
// Usage:
//
//	faultpropd [-addr HOST:PORT] [-data DIR] [-jobs N] [-pool N]
//	           [-progress INTERVAL] [-drain-timeout D] [-pprof HOST:PORT]
//	           [-peers URL,URL,...] [-heartbeat D] [-max-queue N]
//	           [-log-level LEVEL] [-log-format text|json] [-slow-experiment D]
//	           [-archive-dir DIR] [-tenant-quota N] [-tenant-rate R] [-tenant-burst N]
//
// Every job is journaled under -data: killing the daemon (SIGINT/SIGTERM)
// drains gracefully — running campaigns checkpoint and return to the
// queue — and the next start resumes them without re-running completed
// experiments. Submit with any HTTP client or with cmd/campaign -remote:
//
//	faultpropd -addr 127.0.0.1:7207 -data ./faultpropd-data &
//	campaign -remote 127.0.0.1:7207 -apps LULESH -runs 500 -seed 1
//
// A daemon with registered peers (-peers, or POST /v1/workers at runtime)
// also acts as a coordinator: a job submitted with shards > 1 is split
// into per-shard jobs dispatched across the peers and merged into one
// result, byte-identical to running the campaign unsharded. Any plain
// faultpropd is a valid peer — workers need no special mode.
//
// The actual listen address is printed on startup ("faultpropd listening
// on ..."), which makes -addr with port 0 usable in scripts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// buildLogger assembles the daemon's structured logger from the -log-*
// flags. Logs go to stderr so they never mix with the startup lines
// scripts parse from stdout.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7207", "listen address (port 0 picks a free port)")
	data := flag.String("data", "faultpropd-data", "job store directory (status records, journals, results)")
	jobs := flag.Int("jobs", 2, "concurrently running campaigns")
	pool := flag.Int("pool", 0, "experiment workers shared across campaigns (0: GOMAXPROCS)")
	progressEvery := flag.Duration("progress", 500*time.Millisecond, "interval between published progress events (a coordinator's merged progress included) and unit of the shard re-dispatch backoff; no job's completion waits for it")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for running campaigns to checkpoint on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof diagnostics on this address (empty: off)")
	peers := flag.String("peers", "", "comma-separated peer worker URLs for coordinated (sharded) jobs")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "interval between peer worker liveness probes; also how long a shard's event stream may stay silent before the coordinator probes that shard's worker")
	maxQueue := flag.Int("max-queue", 0, "reject submissions beyond this many queued jobs (0: unbounded)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	slowExp := flag.Duration("slow-experiment", 0, "warn about experiments slower than this (0: off)")
	archiveDir := flag.String("archive-dir", "", "campaign archive directory: completed jobs are archived by fingerprint and identical resubmissions are served from it (empty: off)")
	tenantQuota := flag.Int("tenant-quota", 0, "max concurrently active jobs per tenant (0: unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "sustained submissions per second per tenant (0: unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "submission burst capacity per tenant (0: max(rate, 1))")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultpropd: %v\n", err)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux; serve them
		// on their own listener so profiling never mixes with the API.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultpropd: pprof listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("faultpropd pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "faultpropd: pprof: %v\n", err)
			}
		}()
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	srv, err := service.New(service.Config{
		Dir:            *data,
		JobSlots:       *jobs,
		WorkerPool:     *pool,
		ProgressEvery:  *progressEvery,
		MaxQueue:       *maxQueue,
		Peers:          peerList,
		Heartbeat:      *heartbeat,
		Log:            logger,
		SlowExperiment: *slowExp,
		ArchiveDir:     *archiveDir,
		TenantQuota:    *tenantQuota,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultpropd: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "faultpropd: start: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultpropd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("faultpropd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "faultpropd: draining (campaigns checkpoint and requeue)...")
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "faultpropd: serve: %v\n", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "faultpropd: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "faultpropd: stopped")
}
