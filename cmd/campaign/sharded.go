package main

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/service"
)

// Local multi-process sharding: the command re-executes itself as N
// short-lived worker daemons (the hidden -serve-worker mode below), runs
// an in-process coordinator Server with those workers registered as
// peers, serves it on loopback and submits each campaign to it with Shards
// set, as -remote would to any daemon. The coordinator dispatches the
// shards over loopback HTTP and folds their journals, so the local path and
// the -remote path exercise exactly the same code — and the merged result
// is byte-identical to an unsharded run.

// coordLogger builds the coordinator's slog handler for -log-level, or
// nil (discard) when the flag is unset or unrecognized.
func coordLogger(level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// runSharded runs the campaigns across o.shards shards on o.workers local
// worker processes (default 2) behind a private coordinator; coord carries
// that coordinator's pacing and log, runSharded fills in where it lives and
// whom it dispatches to. Every return path — an interrupt included — tears
// the fleet down: the coordinator drains, which cancels the shard jobs still
// running on the workers, the workers are stopped and waited for, and the
// temp dir goes.
func runSharded(ctx context.Context, selected []apps.App, o options, coord service.Config) ([]*harness.CampaignResult, error) {
	if o.checkpoint != "" || o.resume {
		fmt.Fprintln(os.Stderr, "note: -checkpoint/-resume journal daemon-side and are ignored with -shards (the journals live in a temp dir)")
	}
	if o.workers <= 0 {
		o.workers = 2
	}
	if o.workers > o.shards {
		o.workers = o.shards
	}

	tmp, err := os.MkdirTemp("", "campaign-shards-")
	if err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	defer os.RemoveAll(tmp)

	fleet, peers, err := spawnWorkers(tmp, o.workers)
	if err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	defer stopWorkers(fleet)

	coord.Dir = filepath.Join(tmp, "coordinator")
	coord.Peers = peers
	srv, err := service.New(coord)
	if err != nil {
		return nil, fmt.Errorf("sharded: coordinator: %w", err)
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("sharded: coordinator: %w", err)
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(dctx) // the store is about to be deleted
	}()
	hs, _, err := serveHTTP(srv)
	if err != nil {
		return nil, fmt.Errorf("sharded: coordinator: %w", err)
	}
	defer hs.Close()

	how := fmt.Sprintf(" across %d shards on %d workers", o.shards, o.workers)
	return runRemote(ctx, hs.Addr, how, selected, o)
}

// spawnWorkers re-executes this binary n times in -serve-worker mode and
// collects the addresses the workers report on stdout.
func spawnWorkers(tmp string, n int) ([]*exec.Cmd, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("worker exec path: %w", err)
	}
	var fleet []*exec.Cmd
	var peers []string
	for i := 0; i < n; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("worker-%d", i))
		cmd := exec.Command(exe, "-serve-worker", dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stopWorkers(fleet)
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		if err := cmd.Start(); err != nil {
			stopWorkers(fleet)
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		fleet = append(fleet, cmd)
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			stopWorkers(fleet)
			return nil, nil, fmt.Errorf("worker %d exited before reporting its address", i)
		}
		line := sc.Text() // "worker listening on HOST:PORT"
		fields := strings.Fields(line)
		addr := fields[len(fields)-1]
		peers = append(peers, addr)
		go func() { // drain any further output
			for sc.Scan() {
			}
		}()
	}
	return fleet, peers, nil
}

func stopWorkers(fleet []*exec.Cmd) {
	for _, c := range fleet {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range fleet {
		_ = c.Wait()
	}
}

// serveHTTP starts the server's handler on an ephemeral loopback port; the
// returned server's Addr is the address it got. Serve's error arrives on the
// channel once the server stops.
func serveHTTP(srv *service.Server) (*http.Server, <-chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Addr: ln.Addr().String(), Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	return hs, errCh, nil
}

// serveWorkerMain is the hidden -serve-worker mode: a minimal faultpropd
// on an ephemeral loopback port, used as a shard worker by runSharded.
// It prints "worker listening on HOST:PORT" on stdout and serves until
// SIGTERM/SIGINT.
func serveWorkerMain(dir string) {
	srv, err := service.New(service.Config{
		Dir:           dir,
		JobSlots:      4,
		ProgressEvery: 100 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
	hs, errCh, err := serveHTTP(srv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("worker listening on %s\n", hs.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "worker: serve: %v\n", err)
		os.Exit(1)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Drain(dctx)
}
