package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/classify"
)

// TestDeadlockedExperimentInShard runs the five experiments around the
// benchmark's pinned stall — AMG2013 at test scale, seed 2015, experiment
// 1458, whose ranks all block in MPI at mismatched call sites — as an
// explicit-ID shard, on one and four workers, re-executing and forking from
// snapshots. The stall is detected, not waited out (the mpi timeout is 60 s,
// the whole shard takes under a second), every variant yields the same
// bytes, and the phase traces say which experiment deadlocked.
func TestDeadlockedExperimentInShard(t *testing.T) {
	app := apps.ByName("AMG2013")
	const stall = 1458
	base := CampaignConfig{
		App: app, Params: app.TestParams(),
		Sampling:  Sampling{Runs: 1500, Seed: 2015},
		Execution: Execution{SampleEvery: 256},
	}
	// Build the configuration's golden pack outside the timed runs.
	if _, err := RunShard(base, ShardSpec{Shards: 1, Runs: base.Runs, Fingerprint: base.Fingerprint(), IDs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 4} {
		for _, snapshots := range []int{0, 64} {
			label := fmt.Sprintf("workers=%d snapshots=%d", workers, snapshots)
			var mu sync.Mutex
			var deadlocked, timedOut []int
			cfg := base
			cfg.Workers, cfg.Snapshots = workers, snapshots
			cfg.OnPhase = func(tr PhaseTrace) {
				mu.Lock()
				defer mu.Unlock()
				if tr.Deadlock {
					deadlocked = append(deadlocked, tr.ID)
					if tr.Outcome != classify.Crashed {
						t.Errorf("%s: deadlocked experiment %d classified %v", label, tr.ID, tr.Outcome)
					}
				}
				if tr.Timeout {
					timedOut = append(timedOut, tr.ID)
				}
			}
			spec := ShardSpec{
				Shards: 1, Runs: cfg.Runs, Fingerprint: cfg.Fingerprint(),
				IDs: []int{stall - 2, stall - 1, stall, stall + 1, stall + 2},
			}
			start := time.Now()
			part, err := RunShard(cfg, spec)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if d := time.Since(start); d >= time.Second {
				t.Errorf("%s: the shard took %v: the stall was waited out, not detected", label, d)
			}
			if len(deadlocked) != 1 || deadlocked[0] != stall || len(timedOut) != 0 {
				t.Errorf("%s: deadlocks %v, timeouts %v, want [%d] and none", label, deadlocked, timedOut, stall)
			}
			// Timings are wall-clock telemetry; everything else is the result.
			part.Timings = nil
			got, err := json.Marshal(part)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Errorf("%s: partial result differs from workers=1 snapshots=0\n%s\n%s", label, want, got)
			}
		}
	}
}
