package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
)

// countResumes wraps the coreRunResumed indirection so a test can prove a
// campaign actually took the snapshot-fork path (a schedule that silently
// fell back to re-execution would make the differential comparison
// vacuous). Campaigns under test run with Workers: 1, so no atomics.
func countResumes(t *testing.T) *int {
	t.Helper()
	n := new(int)
	orig := coreRunResumed
	coreRunResumed = func(prog *ir.Program, cfg core.RunConfig, snap *core.CampaignSnapshot) core.RunOutcome {
		*n++
		return orig(prog, cfg, snap)
	}
	t.Cleanup(func() { coreRunResumed = orig })
	return n
}

// TestSnapshotForkByteIdentical is the headline differential suite for the
// snapshot-fork fast path: for every application of the study, serial and
// at four ranks, a fixed-seed campaign run in snapshot mode must be
// byte-identical to the same campaign re-executing every experiment from
// step 0 — across the full JSON results, every rendered figure and table,
// and the checkpoint journal.
func TestSnapshotForkByteIdentical(t *testing.T) {
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-r%d", app.Name(), ranks), func(t *testing.T) {
				params := app.TestParams()
				params.Ranks = ranks
				base := CampaignConfig{
					App:    app,
					Params: params, Sampling: Sampling{Runs: 12, Seed: 2015}, Execution: Execution{SampleEvery: 64, Workers: 1},
				}
				dir := t.TempDir()

				reexec := base
				reexec.Checkpoint = filepath.Join(dir, "reexec.journal")
				want, err := RunCampaign(reexec)
				if err != nil {
					t.Fatal(err)
				}

				resumed := countResumes(t)
				snapped := base
				snapped.Snapshots = 3
				snapped.Checkpoint = filepath.Join(dir, "snapshot.journal")
				got, err := RunCampaign(snapped)
				if err != nil {
					t.Fatal(err)
				}
				if *resumed == 0 {
					t.Error("snapshot campaign never forked from a snapshot")
				}

				assertStudyIdentical(t, "snapshot vs re-execution", want, got)

				wj, err := os.ReadFile(reexec.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				gj, err := os.ReadFile(snapped.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wj, gj) {
					t.Errorf("checkpoint journals differ (%d vs %d bytes)", len(wj), len(gj))
				}
			})
		}
	}
}

// TestShardMergeMixedSnapshotModes pins that Snapshots is a pure
// performance strategy, invisible to sharding: a campaign split across
// shards that disagree about snapshot mode must merge byte-identical to
// the unsharded re-execution run, and the shards' phase timings — which DO
// differ by mode — must still merge cleanly.
func TestShardMergeMixedSnapshotModes(t *testing.T) {
	app := apps.NewMD()
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 18, Seed: 777}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewCampaignTimings()
	parts := make([]*PartialResult, len(specs))
	for i, spec := range specs {
		scfg := cfg
		scfg.Timings = NewCampaignTimings()
		if i%2 == 0 {
			scfg.Snapshots = 2
		}
		p, err := RunShard(scfg, spec)
		if err != nil {
			t.Fatalf("shard %d: %v", spec.Index, err)
		}
		if err := merged.Merge(p.Timings); err != nil {
			t.Fatalf("merge shard %d timings: %v", spec.Index, err)
		}
		parts[i] = p
	}
	got, err := MergePartials(parts...)
	if err != nil {
		t.Fatal(err)
	}
	assertStudyIdentical(t, "mixed-mode shards vs unsharded", want, got)
	if gotN, wantN := merged.Count(), uint64(cfg.Runs); gotN != wantN {
		t.Errorf("merged timings counted %d experiments, want %d", gotN, wantN)
	}
	if gotN := merged.Restore.Count(); gotN != uint64(cfg.Runs) {
		t.Errorf("restore histogram counted %d, want %d (every executed experiment observes the phase)",
			gotN, cfg.Runs)
	}
}

// TestTimingsMergeTolerantOfLegacyRestore: partials from builds that
// predate the restore phase carry a nil Restore histogram; merging them —
// in either direction — must work and keep the other phases exact.
func TestTimingsMergeTolerantOfLegacyRestore(t *testing.T) {
	trace := PhaseTrace{Outcome: classify.Vanished, Inject: 1, Restore: 2, Execute: 3, Classify: 4, Total: 10}

	legacy := NewCampaignTimings()
	legacy.Restore = nil // old-schema partial
	legacy.Observe(trace)
	legacy.Observe(trace)

	modern := NewCampaignTimings()
	modern.Observe(trace)

	if err := modern.Merge(legacy); err != nil {
		t.Fatalf("merge legacy into modern: %v", err)
	}
	if got := modern.Count(); got != 3 {
		t.Errorf("merged count = %d, want 3", got)
	}
	if got := modern.Restore.Count(); got != 1 {
		t.Errorf("restore count = %d, want 1 (legacy side had none)", got)
	}

	dst := NewCampaignTimings()
	dst.Restore = nil
	if err := dst.Merge(modern); err != nil {
		t.Fatalf("merge modern into legacy-shaped: %v", err)
	}
	if dst.Restore == nil || dst.Restore.Count() != 1 {
		t.Errorf("legacy-shaped dst did not adopt the restore histogram: %+v", dst.Restore)
	}
}

// FuzzSnapshotSchedule fuzzes the snapshot-fork schedule against
// linear-scan oracles: for arbitrary monotone cut lists and fault plans —
// zero-fault plans and out-of-range ranks included — Best must return the
// latest cut at or before every fault (nil when there is none: the
// experiment runs from step 0), and Tail the suffix of cuts after the fork
// point and past every fault.
func FuzzSnapshotSchedule(f *testing.F) {
	f.Add([]byte{2, 4, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 0, 10, 2, 1, 3, 2, 4})
	f.Add([]byte{1, 1, 0}, []byte{})
	f.Add([]byte{4, 8, 9, 9, 9, 9, 0, 0, 0, 0, 1, 2, 3, 4}, []byte{3, 3, 200, 0, 0, 1, 1, 0, 2, 9})
	f.Add([]byte{3, 0}, []byte{1, 5, 0})

	// Schedules only read a snapshot's cut, so every fuzzed cut reuses one
	// real capture's state.
	resetPacks()
	app := apps.ByName("LULESH")
	pack, err := packFor(CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 1}})
	resetPacks()
	if err != nil {
		f.Fatal(err)
	}
	captured := pack.snaps[0]
	golden := &pack.golden

	f.Fuzz(func(t *testing.T, profile []byte, faultBytes []byte) {
		if len(profile) < 2 {
			return
		}
		ranks := 1 + int(profile[0])%4
		ncuts := int(profile[1]) % 9
		profile = profile[2:]
		next := func() uint64 {
			if len(profile) == 0 {
				return 0
			}
			b := profile[0]
			profile = profile[1:]
			return uint64(b)
		}

		// Cuts in seq order with non-decreasing per-rank site counts (the
		// shape a golden execution guarantees).
		snaps := make([]*core.CampaignSnapshot, ncuts)
		sites := make([]uint64, ranks)
		seq := uint64(0)
		for i := range snaps {
			seq += 1 + next()%3
			for r := range sites {
				sites[r] += next() % 16
			}
			cs := *captured
			cs.Cut = core.SiteCut{Seq: seq, Sites: append([]uint64(nil), sites...)}
			snaps[i] = &cs
		}
		sched := &snapSchedule{snaps: snaps, golden: golden}

		// Plans: a fault count, then (rank, site) pairs, ranks allowed out
		// of range. The empty plan is always among them.
		plans := []inject.Plan{{}}
		for len(faultBytes) > 0 {
			n := int(faultBytes[0]) % 4
			faultBytes = faultBytes[1:]
			var plan inject.Plan
			for ; n > 0 && len(faultBytes) >= 2; n-- {
				plan.Faults = append(plan.Faults, inject.Fault{
					Rank: int(faultBytes[0])%(ranks+2) - 1,
					Site: uint64(faultBytes[1]) / 2,
				})
				faultBytes = faultBytes[2:]
			}
			plans = append(plans, plan)
		}

		for _, plan := range plans {
			var oracle *core.CampaignSnapshot
			for _, cs := range snaps {
				if cs.Cut.Usable(plan) {
					oracle = cs
				}
			}
			best := sched.Best(plan)
			if best != oracle {
				t.Fatalf("Best = %v, oracle = %v (cuts %v, plan %v)", cutsOf(best), cutsOf(oracle), cutsOf(snaps...), plan)
			}
			if (*snapSchedule)(nil).Best(plan) != nil {
				t.Fatal("nil schedule returned a snapshot")
			}
			for _, from := range append([]*core.CampaignSnapshot{nil, best}, snaps...) {
				var want []*core.CampaignSnapshot
				for _, cs := range snaps {
					if (from == nil || cs.Cut.Seq > from.Cut.Seq) && cs.Cut.Past(plan) {
						want = append(want, cs)
					}
				}
				tail := sched.Tail(plan, from)
				if !slices.Equal(tail.Cuts, want) || len(want) > 0 && !slices.Equal(want, snaps[len(snaps)-len(want):]) {
					t.Fatalf("Tail from %v = %v, oracle = %v (cuts %v, plan %v)",
						cutsOf(from), cutsOf(tail.Cuts...), cutsOf(want...), cutsOf(snaps...), plan)
				}
				if (tail.Golden != nil) != (len(want) > 0) || tail.Golden != nil && tail.Golden != golden {
					t.Fatalf("Tail from %v carries golden %p with %d cuts", cutsOf(from), tail.Golden, len(want))
				}
			}
		}
	})
}

// cutsOf lists the cuts of snapshots (nil ones as nil) for failure messages.
func cutsOf(snaps ...*core.CampaignSnapshot) []any {
	cuts := make([]any, len(snaps))
	for i, cs := range snaps {
		if cs != nil {
			cuts[i] = cs.Cut
		}
	}
	return cuts
}
