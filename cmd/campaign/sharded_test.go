package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/service"
)

// pidDirEnv names a directory in which every worker spawned by a test
// leaves a file named after its PID.
const pidDirEnv = "CAMPAIGN_TEST_PID_DIR"

// TestMain makes the test binary its own shard worker: runSharded spawns
// os.Executable() with -serve-worker DIR, which here is this binary, so
// that invocation is dispatched to serveWorkerMain as main does.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-serve-worker" {
		if dir := os.Getenv(pidDirEnv); dir != "" {
			if err := os.WriteFile(filepath.Join(dir, strconv.Itoa(os.Getpid())), nil, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		serveWorkerMain(os.Args[2])
		return
	}
	os.Exit(m.Run())
}

// TestShardedInterruptTearsDownFleet: a -shards run whose context ends
// mid-campaign returns an interrupted error to its caller, and by then its
// worker processes have exited and its temp dir is gone. When the run paths
// called os.Exit themselves the deferred teardown never ran: the workers
// kept serving under PID 1 and /tmp/campaign-shards-* stayed on disk.
func TestShardedInterruptTearsDownFleet(t *testing.T) {
	tmp, pidDir := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Setenv(pidDirEnv, pidDir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := options{runs: 200000, seed: 7, scale: "test", sample: 256, shards: 4, workers: 2}
	done := make(chan error, 1)
	go func() {
		_, err := runSharded(ctx, []apps.App{apps.ByName("LULESH")}, o,
			service.Config{ProgressEvery: 100 * time.Millisecond, Heartbeat: 500 * time.Millisecond})
		done <- err
	}()

	// Mid-run: a worker has journaled experiments of its shard.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		journals, _ := filepath.Glob(filepath.Join(tmp, "campaign-shards-*", "worker-*", "job-*.ckpt.jsonl"))
		if len(journals) > 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("the run ended before any shard started: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard started")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, harness.ErrInterrupted) || exitCode(err) != 130 {
			t.Errorf("interrupted run returned %v (exit %d), want an interrupted error (exit 130)", err, exitCode(err))
		}
	case <-time.After(time.Minute):
		t.Fatal("the interrupted run did not return")
	}

	pids, err := os.ReadDir(pidDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) != o.workers {
		t.Errorf("%d workers left a PID, want %d", len(pids), o.workers)
	}
	for _, e := range pids {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("worker %d outlived the run (signal 0: %v)", pid, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "campaign-shards-*")); len(left) > 0 {
		t.Errorf("temp dir left behind: %v", left)
	}
}

// TestShardedFollowsTheStream: a -shards run is a -remote run against its
// own coordinator — it ends on the job's terminal event and merges to the
// local run's bytes. Nothing in this package polls a job's status, so a
// coordinator that publishes progress once an hour costs it nothing.
func TestShardedFollowsTheStream(t *testing.T) {
	ctx := context.Background()
	selected := []apps.App{apps.ByName("LULESH")}
	o := options{runs: 40, seed: 77, scale: "test", sample: 256, shards: 2}
	local, err := runLocal(ctx, selected, o)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sharded, err := runSharded(ctx, selected, o, service.Config{ProgressEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("two-shard run took %v behind a coordinator with hour-long progress ticks", d)
	}
	lj, _ := json.Marshal(local)
	sj, _ := json.Marshal(sharded)
	if string(lj) != string(sj) {
		t.Errorf("sharded results are not byte-identical to the local run (%d vs %d bytes)", len(sj), len(lj))
	}
}
