package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// recordRuns routes every experiment a campaign executes through a
// recorder until the test ends, and returns the recorded outcomes in
// execution order — ID order, for the one-worker campaigns below.
func recordRuns(t testing.TB) *[]core.RunOutcome {
	t.Helper()
	var mu sync.Mutex
	runs := new([]core.RunOutcome)
	note := func(o core.RunOutcome) core.RunOutcome {
		mu.Lock()
		defer mu.Unlock()
		*runs = append(*runs, o)
		return o
	}
	run, resumed := coreRun, coreRunResumed
	coreRun = func(p *ir.Program, cfg core.RunConfig) core.RunOutcome { return note(run(p, cfg)) }
	coreRunResumed = func(p *ir.Program, cfg core.RunConfig, s *core.CampaignSnapshot) core.RunOutcome {
		return note(resumed(p, cfg, s))
	}
	t.Cleanup(func() { coreRun, coreRunResumed = run, resumed })
	return runs
}

// withoutTelemetry drops what only says how a run executed — restore
// stats, backing, the exits themselves — from its outcome.
func withoutTelemetry(o core.RunOutcome) outcomeView {
	o.Forked, o.RestoreBytes = false, 0
	o.BackedBytes, o.Exited, o.SkippedCycles = 0, false, 0
	o.GhostExits, o.GhostResumes = 0, 0
	o.Ranks = append([]core.RankResult(nil), o.Ranks...)
	for r := range o.Ranks {
		o.Ranks[r].Ghost = false
	}
	return viewOf(o)
}

// sameRun reports whether two executions of one experiment agree on the
// whole RunOutcome. Where either lost ranks as casualties of a peer's
// abort — which peers, is decided by goroutine scheduling (ROADMAP item 1)
// — both must still fail, with a root cause of the same kind, and only the
// ranks that ended on their own on both sides must match; such a run never
// exits, since an exit needs every rank's vote.
func sameRun(got, want core.RunOutcome) bool {
	gv, wv := withoutTelemetry(got), withoutTelemetry(want)
	if reflect.DeepEqual(gv, wv) {
		return true
	}
	if got.Exited || (!gv.casualties() && !wv.casualties()) ||
		got.Err == nil || want.Err == nil || !sameTrapKind(got.Err, want.Err) {
		return false
	}
	for r := range gv.O.Ranks {
		g, w := gv.O.Ranks[r], wv.O.Ranks[r]
		if g.Casualty || w.Casualty {
			continue
		}
		if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gv.Outputs[r+1], wv.Outputs[r+1]) {
			return false
		}
	}
	return true
}

// sameTrapKind reports whether two failures are traps of one kind, or
// both not traps.
func sameTrapKind(a, b error) bool {
	ta, tb := vm.AsTrap(a), vm.AsTrap(b)
	return (ta == nil) == (tb == nil) && (ta == nil || ta.Kind == tb.Kind)
}

// checkGoldenExit runs cfg's experiments — all of them, or spec's — to
// their end (Snapshots 0) and with the early exits (cfg.Snapshots), and
// fails t unless every experiment's RunOutcome agrees, every exited
// experiment is one the paper counts as correct output — V or ONA, no rank
// contaminated at its end, and the golden run's cycles and sites — and
// every rank that ended replaying golden traffic ended uncontaminated,
// without error, at the golden run's sites and cycles. It returns the
// summaries of the exited experiments.
func checkGoldenExit(t testing.TB, label string, cfg CampaignConfig, spec *ShardSpec) []ExperimentSummary {
	t.Helper()
	var want, got []core.RunOutcome
	var sums []ExperimentSummary
	var golden *PartialResult
	for _, snapshots := range []int{0, cfg.Snapshots} {
		c := cfg
		c.Snapshots = snapshots
		runs := recordRuns(t)
		var legSums []ExperimentSummary
		c.OnExperiment = func(sum ExperimentSummary, _ bool) { legSums = append(legSums, sum) }
		s := ShardSpec{Shards: 1, To: c.Runs, Runs: c.Runs}
		if spec != nil {
			s = *spec
		}
		part, err := RunShard(c, s)
		if err != nil {
			t.Fatalf("%s snapshots=%d: %v", label, snapshots, err)
		}
		if snapshots == 0 {
			want = *runs
			golden = part
		} else {
			got, sums = *runs, legSums
		}
	}
	if len(got) != len(want) || len(sums) != len(got) {
		t.Fatalf("%s: %d experiments with exits, %d without, %d summaries", label, len(got), len(want), len(sums))
	}
	pack, err := packFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var exited []ExperimentSummary
	ghosts, resumes := 0, 0
	for i := range got {
		g, sum := got[i], sums[i]
		if !sameRun(g, want[i]) {
			t.Errorf("%s: experiment %d %v: run with exits diverged\n got: %+v\nwant: %+v",
				label, sum.ID, sum.Plan.Faults, withoutTelemetry(g), withoutTelemetry(want[i]))
			continue
		}
		ghosts, resumes = ghosts+g.GhostExits, resumes+g.GhostResumes
		for r, rr := range g.Ranks {
			if rr.Ghost && (rr.FinalCML != 0 || rr.Err != nil || rr.Sites != golden.GoldenSites[r] ||
				rr.Cycles != pack.golden.Ranks[r].Cycles) {
				t.Errorf("%s: experiment %d: rank %d ended as a ghost at CML %d, err %v, %d of %d sites, %d cycles",
					label, sum.ID, r, rr.FinalCML, rr.Err, rr.Sites, golden.GoldenSites[r], rr.Cycles)
			}
		}
		if !g.Exited {
			continue
		}
		exited = append(exited, sum)
		if !sum.Outcome.IsCorrectOutput() {
			t.Errorf("%s: experiment %d ended at a golden-equal cut but classified %v", label, sum.ID, sum.Outcome)
		}
		if g.Cycles != golden.Golden.Cycles || g.SkippedCycles == 0 {
			t.Errorf("%s: experiment %d exited with %d cycles (golden %d), %d skipped",
				label, sum.ID, g.Cycles, golden.Golden.Cycles, g.SkippedCycles)
		}
		for r, rr := range g.Ranks {
			if rr.FinalCML != 0 || rr.Err != nil || rr.Sites != golden.GoldenSites[r] {
				t.Errorf("%s: experiment %d exited with rank %d at CML %d, err %v, %d of %d sites",
					label, sum.ID, r, rr.FinalCML, rr.Err, rr.Sites, golden.GoldenSites[r])
			}
		}
	}
	t.Logf("%s: %d of %d experiments ended at a golden-equal cut; %d ranks ended as ghosts, %d ghosts resumed",
		label, len(exited), len(got), ghosts, resumes)
	return exited
}

// TestGoldenExitMatchesReference is the differential gate for the
// golden-equivalence early exit: for every application, serial and at four
// ranks, and for multi-fault, per-site-and-stratified and selectively
// protected campaigns, every experiment run with the early exit must
// produce the same core.RunOutcome as the same experiment executed to its
// end (Snapshots 0, the byte-identity reference), and every exit must be a
// correct-output run that ends golden. Ranks must also have ended replaying
// golden traffic and ghosts resumed, so both rank-level paths were taken.
// AMG2013 at seed 2015 includes experiment 1458, whose ranks deadlock: it
// must still end as a detected deadlock, so the vote never stalls a
// deadlocking run.
func TestGoldenExitMatchesReference(t *testing.T) {
	before := core.GoldenExits()
	ghosts, resumes := core.GhostExits(), core.GhostResumes()
	exits := 0
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			params := app.TestParams()
			params.Ranks = ranks
			cfg := CampaignConfig{
				App: app, Params: params,
				Sampling:  Sampling{Runs: 120, Seed: 2015},
				Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 64},
			}
			exits += len(checkGoldenExit(t, fmt.Sprintf("%s r%d", app.Name(), ranks), cfg, nil))
		}
	}

	lulesh, minife, mcb := apps.ByName("LULESH"), apps.ByName("miniFE"), apps.ByName("MCB")
	multi := CampaignConfig{
		App: lulesh, Params: lulesh.TestParams(),
		Sampling:  Sampling{Runs: 120, Seed: 7, MultiFaultLambda: 0.5},
		Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 64},
	}
	multiExits := 0
	for _, sum := range checkGoldenExit(t, "LULESH multi-fault", multi, nil) {
		exits++
		if len(sum.Plan.Faults) > 1 {
			multiExits++
		}
	}
	if multiExits == 0 {
		t.Error("no multi-fault experiment ended at a golden-equal cut")
	}
	sites := CampaignConfig{
		App: mcb, Params: mcb.TestParams(),
		Sampling:  Sampling{Runs: 40, Seed: 11, Sites: true, Strata: 4},
		Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 64},
	}
	exits += len(checkGoldenExit(t, "MCB sites+strata", sites, nil))
	protect := CampaignConfig{
		App: minife, Params: minife.TestParams(),
		Sampling:  Sampling{Runs: 40, Seed: 5},
		Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 64},
		Protect:   []int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30},
	}
	exits += len(checkGoldenExit(t, "miniFE protected", protect, nil))

	amg := apps.ByName("AMG2013")
	const stall = 1458
	stalls := CampaignConfig{
		App: amg, Params: amg.TestParams(),
		Sampling:  Sampling{Runs: 1500, Seed: 2015},
		Execution: Execution{SampleEvery: 256, Workers: 1, Snapshots: 64},
	}
	var mu sync.Mutex
	deadlocked := map[int]bool{}
	stalls.OnPhase = func(tr PhaseTrace) {
		mu.Lock()
		defer mu.Unlock()
		if tr.Deadlock {
			deadlocked[tr.ID] = true
		}
		if tr.Timeout {
			t.Errorf("AMG2013 experiment %d ran into the mpi safety timeout", tr.ID)
		}
	}
	spec := &ShardSpec{Shards: 1, Runs: stalls.Runs, Fingerprint: stalls.Fingerprint()}
	for id := stall - 40; id <= stall+10; id++ {
		spec.IDs = append(spec.IDs, id)
	}
	start := time.Now()
	exits += len(checkGoldenExit(t, "AMG2013 around the pinned stall", stalls, spec))
	if !deadlocked[stall] {
		t.Errorf("experiment %d did not end as a detected deadlock (deadlocks: %v)", stall, deadlocked)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("the AMG2013 shards took %v: a stall was waited out", d)
	}

	if exits == 0 || core.GoldenExits()-before != uint64(exits) {
		t.Errorf("%d experiments exited, core.GoldenExits advanced %d: want both > 0 and equal",
			exits, core.GoldenExits()-before)
	}
	if core.GhostExits() == ghosts || core.GhostResumes() == resumes {
		t.Errorf("GhostExits advanced %d and GhostResumes %d: want both > 0",
			core.GhostExits()-ghosts, core.GhostResumes()-resumes)
	}
	t.Logf("%d experiments ended at a golden-equal cut", exits)
}

// FuzzGoldenExit drives the same differential over generated
// (application, ranks, seed, snapshot budget) campaigns.
func FuzzGoldenExit(f *testing.F) {
	f.Add(uint8(0), false, uint64(2015), uint8(64))
	f.Add(uint8(1), true, uint64(7), uint8(3))
	f.Add(uint8(2), false, uint64(99), uint8(1))
	f.Add(uint8(3), true, uint64(2022), uint8(17))
	f.Add(uint8(4), true, uint64(5), uint8(64))
	all := apps.All()
	f.Fuzz(func(t *testing.T, app uint8, four bool, seed uint64, budget uint8) {
		a := all[int(app)%len(all)]
		params := a.TestParams()
		if four {
			params.Ranks = 4
		}
		cfg := CampaignConfig{
			App: a, Params: params,
			Sampling:  Sampling{Runs: 12, Seed: seed},
			Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 1 + int(budget)%64},
		}
		checkGoldenExit(t, fmt.Sprintf("%s r%d seed %d budget %d", a.Name(), params.Ranks, seed, cfg.Snapshots), cfg, nil)
	})
}

// TestGoldenTrafficImmutable runs two campaigns on one pack at once, each
// with two workers, whose ghosts replay the pack's golden traffic
// concurrently, and checks that no byte of the traffic changed: a log
// slice handed to a peer or to the wire-buffer pool would be written into
// by a later message. Under -race it also checks that the replays only
// read the log.
func TestGoldenTrafficImmutable(t *testing.T) {
	app := apps.ByName("LULESH")
	params := app.TestParams()
	params.Ranks = 4
	cfg := CampaignConfig{
		App: app, Params: params,
		Sampling:  Sampling{Runs: 60, Seed: 2015},
		Execution: Execution{SampleEvery: 64, Workers: 2, Snapshots: 64},
	}
	pack, err := packFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := pack.traffic.Digest()
	exits, resumes := core.GhostExits(), core.GhostResumes()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed += uint64(i)
			_, errs[i] = RunCampaign(c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := packFor(cfg); p != pack {
		t.Fatal("the campaigns did not share the pack")
	}
	if core.GhostExits() == exits || core.GhostResumes() == resumes {
		t.Fatalf("GhostExits advanced %d and GhostResumes %d: the traffic was not replayed",
			core.GhostExits()-exits, core.GhostResumes()-resumes)
	}
	if after := pack.traffic.Digest(); after != before {
		t.Errorf("the pack's golden traffic changed: digest %x, was %x", after, before)
	}
}
