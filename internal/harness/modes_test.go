package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// The execution-mode matrix holds the promise every fast path of the
// harness makes: a fingerprinted campaign yields the same bytes, and each
// experiment the same core.RunOutcome, however it is executed. A row takes
// one value on every axis; the rows are a pairwise covering array, and
// each is checked against the reference execution of the same campaign.

type interpMode int

const (
	interpClean interpMode = iota // clean-mode code arrays until a rank is contaminated
	interpFull                    // the full dual-chain interpreter only (the unpaired clone)
)

type tailMode int

const (
	tailNone   tailMode = iota // Snapshots: 0: every experiment runs from step 0 to its end
	tailFork                   // fork from the latest usable cut, then run to the end
	tailExit                   // fork, and end at a golden-equal cut (no golden traffic: no ghosts)
	tailGhosts                 // fork, exit, and ranks back in the golden state replay its traffic
)

type samplingMode int

const (
	sampleSingle   samplingMode = iota // one uniform single-bit fault per experiment
	sampleMulti                        // Poisson-many faults (MultiFaultLambda)
	sampleStrata                       // per-site analytics and stratified reporting
	sampleAdaptive                     // adaptive rounds to a target CI
	sampleProtect                      // selectively protected static sites
)

type resumeMode int

const (
	resumeNone    resumeMode = iota // one uninterrupted pass
	resumeStopped                   // interrupted by StopAfter, then resumed from the journal
	resumeFamily                    // resumed from the journal of a shorter campaign of its family
)

// execMode is one row of the matrix. Ranks and sampling fix the campaign
// (with the app and the seed); the other axes say how it is executed.
type execMode struct {
	interp   interpMode
	tail     tailMode
	workers  int // 1 or 4
	shards   int // 1 or 3, shipped in their wire form and merged in reverse
	resume   resumeMode
	ranks    int // 1 or 4
	sampling samplingMode
	// mixed runs shard i at tail (tail+i) mod 4: shards that disagree about
	// how to execute still merge to the reference bytes.
	mixed bool
}

func (m execMode) String() string {
	return fmt.Sprintf("%s/%s/w%d/sh%d/%s/r%d/%s%s",
		[]string{"clean", "full"}[m.interp], []string{"none", "fork", "exit", "ghosts"}[m.tail],
		m.workers, m.shards, []string{"whole", "resumed", "family"}[m.resume], m.ranks,
		[]string{"single", "multi", "strata", "adaptive", "protect"}[m.sampling], map[bool]string{true: "/mixed"}[m.mixed])
}

// referenceMode executes a campaign the plainest way: the clean+full
// interpreter, every experiment from step 0 to its end, on one worker, in
// one uninterrupted shard.
func referenceMode(ranks int, sampling samplingMode) execMode {
	return execMode{interp: interpClean, tail: tailNone, workers: 1, shards: 1, ranks: ranks, sampling: sampling}
}

// matrixRows is a hand-listed pairwise covering array over modeAxes. The
// first row is the all-reference row: it pins determinism across runs.
var matrixRows = []execMode{
	referenceMode(1, sampleSingle),
	{interpClean, tailNone, 1, 3, resumeNone, 4, sampleMulti, false},
	{interpClean, tailNone, 1, 1, resumeStopped, 1, sampleStrata, false},
	{interpClean, tailNone, 4, 1, resumeStopped, 1, sampleAdaptive, false},
	{interpFull, tailNone, 4, 3, resumeStopped, 4, sampleProtect, false},
	{interpFull, tailFork, 4, 1, resumeNone, 4, sampleSingle, false},
	{interpClean, tailFork, 4, 3, resumeStopped, 1, sampleMulti, false},
	{interpClean, tailFork, 1, 1, resumeNone, 4, sampleStrata, false},
	{interpClean, tailFork, 4, 3, resumeNone, 4, sampleAdaptive, false},
	{interpClean, tailFork, 4, 1, resumeStopped, 4, sampleProtect, false},
	{interpClean, tailExit, 4, 3, resumeNone, 1, sampleSingle, false},
	{interpClean, tailExit, 1, 3, resumeNone, 4, sampleMulti, false},
	{interpClean, tailExit, 4, 1, resumeNone, 1, sampleStrata, false},
	{interpClean, tailExit, 1, 1, resumeStopped, 4, sampleAdaptive, false},
	{interpFull, tailExit, 1, 1, resumeNone, 1, sampleProtect, false},
	{interpFull, tailGhosts, 4, 3, resumeStopped, 4, sampleSingle, false},
	{interpFull, tailGhosts, 1, 1, resumeNone, 4, sampleMulti, false},
	{interpFull, tailGhosts, 4, 3, resumeNone, 4, sampleStrata, false},
	{interpFull, tailGhosts, 4, 1, resumeStopped, 4, sampleAdaptive, false},
	{interpClean, tailGhosts, 1, 3, resumeNone, 4, sampleProtect, true},
	{interpClean, tailNone, 1, 1, resumeFamily, 1, sampleSingle, false},
	{interpFull, tailFork, 4, 3, resumeFamily, 4, sampleMulti, false},
	{interpClean, tailExit, 4, 3, resumeFamily, 1, sampleStrata, false},
	{interpFull, tailGhosts, 1, 1, resumeFamily, 4, sampleProtect, false},
}

// modeAxes are the matrix's axes: their values, and a row's value.
var modeAxes = []struct {
	name   string
	values []any
	of     func(execMode) any
}{
	{"interp", []any{interpClean, interpFull}, func(m execMode) any { return m.interp }},
	{"tail", []any{tailNone, tailFork, tailExit, tailGhosts}, func(m execMode) any { return m.tail }},
	{"workers", []any{1, 4}, func(m execMode) any { return m.workers }},
	{"shards", []any{1, 3}, func(m execMode) any { return m.shards }},
	{"resume", []any{resumeNone, resumeStopped, resumeFamily}, func(m execMode) any { return m.resume }},
	{"ranks", []any{1, 4}, func(m execMode) any { return m.ranks }},
	{"sampling", []any{sampleSingle, sampleMulti, sampleStrata, sampleAdaptive, sampleProtect},
		func(m execMode) any { return m.sampling }},
}

// impossiblePairs are the value pairs no row can hold. Ghosts at one rank:
// a 1-rank job has no peer to replay golden traffic to, and its one rank
// back in the golden state ends the job instead. An adaptive campaign's
// rounds draw from [0, Runs), so no shorter campaign's journal is a
// prefix of its own.
var impossiblePairs = [][4]any{{"tail", tailGhosts, "ranks", 1}, {"resume", resumeFamily, "sampling", sampleAdaptive}}

// matrixRuns is each matrix campaign's experiment count. matrixSeeds are
// the seed every exhibit is pinned at and a second one no exhibit uses.
// Uniform sampling faults the last site before a captured cut, the
// boundary a fork must not cross, about once in 600 experiments; the
// second seed's campaigns do so four times (LULESH at four ranks, miniFE
// and MCB at one) and seed 2015's never.
const matrixRuns = 10

var matrixSeeds = []uint64{2015, 1512}

// config is the campaign row m runs for app at seed.
func (m execMode) config(app apps.App, seed uint64) CampaignConfig {
	params := app.TestParams()
	params.Ranks = m.ranks
	cfg := CampaignConfig{
		App: app, Params: params,
		Sampling:  Sampling{Runs: matrixRuns, Seed: seed},
		Execution: Execution{SampleEvery: 64, Workers: m.workers},
	}
	switch m.sampling {
	case sampleMulti:
		cfg.MultiFaultLambda = 1
	case sampleStrata:
		cfg.Sites, cfg.Strata = true, 4
	case sampleAdaptive:
		// Two rounds (16 and 4) when the first does not meet the target.
		cfg.Runs, cfg.TargetCI, cfg.Strata = 2*matrixRuns, 0.22, 1
	case sampleProtect:
		cfg.Protect = []int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30}
	}
	return cfg
}

// unpaired returns a shallow clone of an instrumented program whose
// functions declare no register pairing. The VM lowers such a program
// without a clean code array, so every rank built on the clone runs the
// full dual-chain interpreter.
func unpaired(p *ir.Program) *ir.Program {
	q := &ir.Program{ByName: p.ByName, Globals: p.Globals, GlobalWords: p.GlobalWords, Entry: p.Entry}
	for _, f := range p.Funcs {
		g := *f
		g.PairedRegs = 0
		q.Funcs = append(q.Funcs, &g)
	}
	return q
}

// runCounts counts how experiments executed; multiExits counts the exited
// ones with more than one fault.
type runCounts struct{ runs, forked, exited, multiExits, ghostExits, ghostResumes int }

func (c *runCounts) add(o runCounts) {
	c.runs, c.forked, c.exited = c.runs+o.runs, c.forked+o.forked, c.exited+o.exited
	c.multiExits, c.ghostExits, c.ghostResumes = c.multiExits+o.multiExits, c.ghostExits+o.ghostExits, c.ghostResumes+o.ghostResumes
}

// runRecorder is the one test double on the harness's execution seams,
// coreGoldenCapture and coreRun. It keeps every experiment's outcome keyed
// by its plan (identical plans give identical outcomes, so campaigns on any
// number of workers compare experiment by experiment) and applies a row's
// interpreter and tail: full routes the golden capture and every
// experiment onto the unpaired clone of the program, tailFork drops the
// cuts to end at and tailExit the golden traffic. It also checks each
// run's cuts: a fork must precede every planned fault, and every cut the
// run may end at must follow them all. It is safe for concurrent runs.
type runRecorder struct {
	mu        sync.Mutex
	tail      tailMode
	runs      map[string]core.RunOutcome
	counts    runCounts
	misplaced []string
	stop      func()
}

// record installs a recorder on the seams until its stop is called.
func record(t testing.TB, full bool) *runRecorder {
	rec := &runRecorder{runs: map[string]core.RunOutcome{}}
	golden, run := coreGoldenCapture, coreRun
	clones := map[*ir.Program]*ir.Program{}
	prog := func(p *ir.Program) *ir.Program {
		if !full {
			return p
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if clones[p] == nil {
			clones[p] = unpaired(p)
		}
		return clones[p]
	}
	coreGoldenCapture = func(p *ir.Program, cfg core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		return golden(prog(p), cfg, seqs, sites)
	}
	coreRun = func(p *ir.Program, cfg core.RunConfig, snap *core.CampaignSnapshot) core.RunOutcome {
		rec.mu.Lock()
		switch rec.tail {
		case tailFork:
			cfg.Tail = core.Tail{}
		case tailExit:
			cfg.Tail.Traffic = nil
		}
		rec.mu.Unlock()
		o := run(prog(p), cfg, snap)
		rec.note(cfg, snap, o)
		return o
	}
	var once sync.Once
	rec.stop = func() { once.Do(func() { coreGoldenCapture, coreRun = golden, run }) }
	t.Cleanup(rec.stop)
	return rec
}

func (r *runRecorder) note(cfg core.RunConfig, snap *core.CampaignSnapshot, o core.RunOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	plan := fmt.Sprint(cfg.Plan.Faults)
	r.runs[plan] = o
	for _, f := range cfg.Plan.Faults {
		if snap != nil && snap.Cut.Sites[f.Rank] > f.Site {
			r.misplaced = append(r.misplaced, fmt.Sprintf("plan %s forked from the cut at sites %v", plan, snap.Cut.Sites))
		}
		for _, cs := range cfg.Tail.Cuts {
			if cs.Cut.Sites[f.Rank] <= f.Site {
				r.misplaced = append(r.misplaced, fmt.Sprintf("plan %s may end at the cut at sites %v", plan, cs.Cut.Sites))
			}
		}
	}
	c := &r.counts
	c.runs++
	c.ghostExits += o.GhostExits
	c.ghostResumes += o.GhostResumes
	if o.Forked {
		c.forked++
	}
	if o.Exited {
		c.exited++
		if len(cfg.Plan.Faults) > 1 {
			c.multiExits++
		}
	}
}

// setTail sets the tail the recorder applies from now on, and cfg's
// Snapshots to match.
func (r *runRecorder) setTail(cfg *CampaignConfig, tail tailMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tail, cfg.Snapshots = tail, 0
	if tail != tailNone {
		cfg.Snapshots = 64
	}
}

// privatePacks gives the caller an empty pack registry until the returned
// function puts the previous one back, so packs captured by the full
// interpreter never serve another row.
func privatePacks() (restore func()) {
	packMu.Lock()
	defer packMu.Unlock()
	saved, savedLRU := packs, packLRU
	packs, packLRU = map[packKey]*snapshotPack{}, nil
	return func() {
		packMu.Lock()
		defer packMu.Unlock()
		packs, packLRU = saved, savedLRU
	}
}

// matrixRun is one execution of a campaign: its result, its journal when
// unsharded, the merged phase timings of every experiment it executed, its
// recorder, and the clean-mode switches and journal replays it made.
type matrixRun struct {
	res      *CampaignResult
	journal  []byte
	timings  *CampaignTimings
	rec      *runRecorder
	switches uint64
	replayed int
}

// run executes cfg in mode m.
func (m execMode) run(t testing.TB, cfg CampaignConfig) *matrixRun {
	t.Helper()
	if m.interp == interpFull {
		defer privatePacks()()
	}
	out := &matrixRun{rec: record(t, m.interp == interpFull)}
	defer out.rec.stop()
	dir := t.TempDir()
	switches := vm.CleanModeSwitches()
	cfg.OnExperiment = func(_ ExperimentSummary, resumed bool) {
		if resumed {
			out.replayed++
		}
	}
	// Every experiment's phase trace reports its ghost ends and resumes;
	// a shard's and a shorter campaign's run inherit the hook.
	var ghostEnds, ghostResumes atomic.Int64
	cfg.OnPhase = func(tr PhaseTrace) {
		ghostEnds.Add(int64(tr.GhostExits))
		ghostResumes.Add(int64(tr.GhostResumes))
	}
	// The journal and the timings are the campaign's, a sharded row's
	// shards observing into the same timings.
	cfg.Checkpoint, cfg.Timings = filepath.Join(dir, "journal"), NewCampaignTimings()
	out.timings = cfg.Timings
	// resumable runs pass on c. A resumed row first interrupts it on one
	// worker, which stops within two experiments of stopAfter, and then
	// resumes it from its journal (in a sharded row, shard 0's: the others
	// may be too small to interrupt). An unsharded family row first runs
	// the shorter campaign of familyRuns(c) experiments into the same
	// journal (a sharded one seeds its journal instead: seedFamily).
	resumable := func(c CampaignConfig, stopAfter int, pass func(CampaignConfig) error) {
		switch {
		case m.resume == resumeStopped && stopAfter > 0:
			stopped := c
			stopped.Workers, stopped.StopAfter = 1, stopAfter
			if err := pass(stopped); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("%v: the interrupted pass returned %v, want ErrInterrupted", m, err)
			}
			c.Resume = true
		case m.resume == resumeFamily && m.shards == 1:
			shorter := c
			shorter.Runs = familyRuns(c)
			if err := pass(shorter); err != nil {
				t.Fatalf("%v: the %d-run pass: %v", m, shorter.Runs, err)
			}
			c.Resume = true
		}
		if err := pass(c); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	switch {
	case m.resume == resumeFamily && cfg.Adaptive():
		t.Fatalf("%v: an adaptive campaign has no family journal", m)
	case m.shards == 1:
		out.rec.setTail(&cfg, m.tail)
		resumable(cfg, cfg.Runs/4, func(c CampaignConfig) (err error) {
			out.res, err = RunCampaign(c)
			return err
		})
		var err error
		if out.journal, err = os.ReadFile(cfg.Checkpoint); err != nil {
			t.Fatal(err)
		}
	default:
		// A coordinated campaign: the engine's own journal and plan, each
		// batch run as explicit-ID shards whose journals, their wire form,
		// fold back in reverse.
		if m.resume == resumeFamily {
			m.seedFamily(t, out.rec, cfg, filepath.Join(dir, "family"))
			cfg.Resume = true
		}
		part, _ := runOnShards(t, cfg, m.shards, func(i int, c CampaignConfig, spec ShardSpec) error {
			tail := m.tail
			if m.mixed {
				tail = (tail + tailMode(i)) % 4
			}
			out.rec.setTail(&c, tail)
			stopAfter := 0
			if i == 0 {
				stopAfter = 1
			}
			resumable(c, stopAfter, func(c CampaignConfig) error {
				_, err := RunShard(c, spec)
				return err
			})
			return nil
		})
		var err error
		if out.res, err = part.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	out.switches = vm.CleanModeSwitches() - switches
	for _, e := range out.rec.misplaced {
		t.Errorf("%v: %s", m, e)
	}
	c := out.rec.counts
	if d := out.timings.Exits(); d != c.exited {
		t.Errorf("%v: the phase traces counted %d exits for %d exited experiments", m, d, c.exited)
	}
	if g, r := ghostEnds.Load(), ghostResumes.Load(); g != int64(c.ghostExits) || r != int64(c.ghostResumes) {
		t.Errorf("%v: the phase traces counted %d ghost ends and %d resumes, the experiments %d and %d", m, g, r, c.ghostExits, c.ghostResumes)
	}
	if n := out.timings.Count(); n != uint64(c.runs) || out.timings.Restore.Count() != n {
		t.Errorf("%v: timings counted %d experiments (restore phase %d), the recorder %d", m, n, out.timings.Restore.Count(), c.runs)
	}
	return out
}

// familyRuns is the length of the shorter campaign of cfg's family that a
// family row resumes from.
func familyRuns(cfg CampaignConfig) int { return cfg.Runs / 2 }

// seedFamily seeds cfg's journal as a coordinator seeds a job's: it runs
// the shorter campaign of cfg's family, journaled at path, in row m's
// tail, and writes its records under cfg's header (SeedJournal), for
// cfg's resume to replay.
func (m execMode) seedFamily(t testing.TB, rec *runRecorder, cfg CampaignConfig, path string) {
	t.Helper()
	shorter := cfg
	rec.setTail(&shorter, m.tail)
	shorter.Runs, shorter.Checkpoint, shorter.OnExperiment = familyRuns(cfg), path, nil
	if _, err := RunCampaign(shorter); err != nil {
		t.Fatalf("%v: the %d-run campaign: %v", m, shorter.Runs, err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SeedJournal(cfg.Checkpoint, cfg, journal); err != nil {
		t.Fatalf("%v: %v", m, err)
	}
}

// reference is a campaign's reference execution, with each plan's
// classification and the golden run's per-rank cycles.
type reference struct {
	*matrixRun
	outcome    map[string]classify.Outcome
	rankCycles []uint64
}

type matrixKey struct {
	app      string
	seed     uint64
	ranks    int
	sampling samplingMode
}

// newReference makes run, whose summaries are sums, the reference
// execution of cfg.
func newReference(t testing.TB, run *matrixRun, cfg CampaignConfig, sums []ExperimentSummary) *reference {
	t.Helper()
	ref := &reference{matrixRun: run, outcome: map[string]classify.Outcome{}}
	for _, sum := range sums {
		ref.outcome[fmt.Sprint(sum.Plan.Faults)] = sum.Outcome
	}
	pack, err := packFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range pack.golden.Ranks {
		ref.rankCycles = append(ref.rankCycles, rr.Cycles)
	}
	return ref
}

// checkRow runs the campaign of row m for app at seed, and checks it
// against its reference execution (cached in refs, which may be nil): the
// same result bytes (JSON and every rendered exhibit), the same journal
// bytes when unsharded on one worker, and the same experiments
// (checkRuns).
func checkRow(t testing.TB, m execMode, app apps.App, seed uint64, refs map[matrixKey]*reference) *matrixRun {
	t.Helper()
	key := matrixKey{app.Name(), seed, m.ranks, m.sampling}
	ref := refs[key]
	if ref == nil {
		rm := referenceMode(m.ranks, m.sampling)
		run := rm.run(t, rm.config(app, seed))
		ref = newReference(t, run, rm.config(app, seed), run.res.Experiments)
		if refs != nil {
			refs[key] = ref
		}
	}
	got := m.run(t, m.config(app, seed))
	label := fmt.Sprintf("%s seed %d %v", app.Name(), seed, m)
	ref.checkRuns(t, label, got.rec, got.res.Golden.Cycles, got.res.GoldenSites)
	assertSameStudy(t, label, ref.res, got.res)
	if m.shards > 1 || m.workers > 1 {
		return got
	}
	want, have := journalLines(ref.journal), journalLines(got.journal)
	if len(want) != len(have) {
		t.Errorf("%s: checkpoint journal holds %d lines, the reference's %d", label, len(have), len(want))
		return got
	}
	for i := range want {
		if !bytes.Equal(want[i], have[i]) {
			t.Errorf("%s: checkpoint journal line %d differs from the reference's:\n got: %.300s\nwant: %.300s", label, i+1, have[i], want[i])
			return got
		}
	}
	return got
}

// checkRuns requires every experiment got executed to have the reference's
// core.RunOutcome for its plan, telemetry aside. An experiment that
// ended at a golden-equal cut must be one the paper counts as correct
// output, ending at the golden run's cycles and sites with no rank
// contaminated; a rank that ended replaying golden traffic must have ended
// uncontaminated, without error, at the golden run's sites and cycles.
func (ref *reference) checkRuns(t testing.TB, label string, got *runRecorder, goldenCycles uint64, goldenSites []uint64) {
	t.Helper()
	for plan, g := range got.runs {
		w, ok := ref.rec.runs[plan]
		if gv, wv := withoutTelemetry(g), withoutTelemetry(w); !ok || !reflect.DeepEqual(gv, wv) {
			t.Errorf("%s: plan %s diverged from the reference (ran there: %v)\n got: %+v\nwant: %+v", label, plan, ok, gv, wv)
			continue
		}
		for r, rr := range g.Ranks {
			if rr.Ghost && (rr.FinalCML != 0 || rr.Err != nil || rr.Sites != goldenSites[r] || rr.Cycles != ref.rankCycles[r]) {
				t.Errorf("%s: plan %s: rank %d ended as a ghost at CML %d, err %v, %d of %d sites, %d of %d cycles",
					label, plan, r, rr.FinalCML, rr.Err, rr.Sites, goldenSites[r], rr.Cycles, ref.rankCycles[r])
			}
		}
		if !g.Exited {
			continue
		}
		if o := ref.outcome[plan]; !o.IsCorrectOutput() {
			t.Errorf("%s: plan %s ended at a golden-equal cut but classified %v", label, plan, o)
		}
		if g.Cycles != goldenCycles || g.SkippedCycles == 0 {
			t.Errorf("%s: plan %s exited with %d cycles (golden %d), %d skipped", label, plan, g.Cycles, goldenCycles, g.SkippedCycles)
		}
		for r, rr := range g.Ranks {
			if rr.FinalCML != 0 || rr.Err != nil || rr.Sites != goldenSites[r] {
				t.Errorf("%s: plan %s exited with rank %d at CML %d, err %v, %d of %d sites",
					label, plan, r, rr.FinalCML, rr.Err, rr.Sites, goldenSites[r])
			}
		}
	}
}

// TestExecModeMatrix is the differential gate for every execution
// mechanism of the harness: the clean-mode interpreter, snapshot forks,
// golden-equivalence exits, ghost ranks, worker pools, shards merged
// through their wire form, and kill/resume, crossed pairwise with rank
// counts and every sampling policy. Every row runs every application at
// test scale at two seeds and must reproduce the reference execution
// (checkRow), and each mechanism a row turns on must have been taken in
// it: forks, exits (multi-fault ones too), ghost ends and resumes,
// clean-mode switches (none in a full-only row) and journal replays.
func TestExecModeMatrix(t *testing.T) {
	t.Run("pairs", func(t *testing.T) {
		if matrixRows[0] != referenceMode(1, sampleSingle) {
			t.Errorf("row 0 is %v, not the all-reference row", matrixRows[0])
		}
		for i, a := range modeAxes {
			for _, m := range matrixRows {
				if !slices.Contains(a.values, a.of(m)) {
					t.Errorf("row %v: %v is not a value of axis %s", m, a.of(m), a.name)
				}
			}
			for _, b := range modeAxes[i+1:] {
				for _, va := range a.values {
					for _, vb := range b.values {
						held := slices.ContainsFunc(matrixRows, func(m execMode) bool { return a.of(m) == va && b.of(m) == vb })
						if impossible := slices.Contains(impossiblePairs, [4]any{a.name, va, b.name, vb}); held == impossible {
							t.Errorf("%s=%v with %s=%v: held by a row %v, impossible %v", a.name, va, b.name, vb, held, impossible)
						}
					}
				}
			}
		}
	})

	totals := make([]runCounts, len(matrixRows))
	switches := make([]int, len(matrixRows))
	replayed := make([]int, len(matrixRows))
	engaged := 0
	for _, app := range apps.All() {
		// One app's references at a time: its packs, plain and protected at
		// both rank counts, fit in the registry together.
		refs := map[matrixKey]*reference{}
		for _, seed := range matrixSeeds {
			for i, m := range matrixRows {
				t.Run(fmt.Sprintf("%s/%d/%v", app.Name(), seed, m), func(t *testing.T) {
					got := checkRow(t, m, app, seed, refs)
					totals[i].add(got.rec.counts)
					switches[i] += int(got.switches)
					replayed[i] += got.replayed
					if m.sampling == sampleAdaptive && got.res.Tally.Total < got.res.Runs {
						engaged++
					}
				})
			}
		}
	}
	if t.Failed() {
		return
	}
	if engaged == 0 {
		t.Error("every adaptive campaign spent its whole budget: the target CI never engaged")
	}
	for i, m := range matrixRows {
		c := totals[i]
		for _, n := range []struct {
			what  string
			count int
			want  bool
		}{
			{"forks", c.forked, m.tail != tailNone},
			{"exits", c.exited, m.tail >= tailExit},
			{"multi-fault exits", c.multiExits, m.tail >= tailExit && m.sampling == sampleMulti},
			{"ghost ends", c.ghostExits, m.tail == tailGhosts},
			{"ghost resumes", c.ghostResumes, m.tail == tailGhosts},
			{"clean-mode switches", switches[i], m.interp == interpClean},
			{"journal replays", replayed[i], m.resume != resumeNone},
		} {
			// A mixed row runs other tails on some shards: only what its own
			// tail turns on is pinned.
			if n.want && n.count == 0 || !n.want && n.count != 0 && !m.mixed {
				t.Errorf("%v: %d %s, want them %v", m, n.count, n.what, n.want)
			}
		}
		t.Logf("%v: %+v, %d clean-mode switches", m, c, switches[i])
	}
}

// The tests below each hold one mechanism's promise on its own axis: a
// row that differs from the reference execution there only, checked by
// checkRow like a matrix row, so a regression in one mechanism fails the
// test named after it as well as the matrix rows that cross it.

// TestCampaignDeterministicAcrossRuns runs the all-reference row twice.
func TestCampaignDeterministicAcrossRuns(t *testing.T) {
	checkRow(t, referenceMode(1, sampleSingle), apps.NewFE(), 7, nil)
}

// invarianceCases are the single- and multi-fault campaigns the worker and
// resume axes are held on.
var invarianceCases = []struct {
	name     string
	app      apps.App
	seed     uint64
	sampling samplingMode
}{
	{"hydro-single", apps.NewHydro(), 99, sampleSingle},
	{"fe-multifault", apps.NewFE(), 21, sampleMulti},
}

// TestCampaignWorkerCountInvariance: four workers give the one-worker
// bytes and, plan by plan, the same outcomes.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	for _, tc := range invarianceCases {
		t.Run(tc.name, func(t *testing.T) {
			m := referenceMode(1, tc.sampling)
			m.workers = 4
			checkRow(t, m, tc.app, tc.seed, nil)
		})
	}
}

// TestCampaignResumeMatchesUninterrupted interrupts a campaign by
// StopAfter and resumes it on four workers from its journal.
func TestCampaignResumeMatchesUninterrupted(t *testing.T) {
	for _, tc := range invarianceCases {
		t.Run(tc.name, func(t *testing.T) {
			m := referenceMode(1, tc.sampling)
			m.workers, m.resume = 4, resumeStopped
			if got := checkRow(t, m, tc.app, tc.seed, nil); got.replayed == 0 {
				t.Error("the resumed campaign replayed no journal record")
			}
		})
	}
}

// checkAdaptive checks adaptive row m on LULESH at seed 2015 and requires
// the target CI to have stopped the campaign under its budget.
func checkAdaptive(t *testing.T, m execMode) *matrixRun {
	got := checkRow(t, m, apps.NewHydro(), 2015, nil)
	if got.res.Tally.Total >= got.res.Runs {
		t.Errorf("%v: the campaign spent its whole budget (%d): the target CI never engaged", m, got.res.Runs)
	}
	return got
}

// TestAdaptiveWorkerCountInvariance runs adaptive rounds on four workers.
func TestAdaptiveWorkerCountInvariance(t *testing.T) {
	m := referenceMode(1, sampleAdaptive)
	m.workers = 4
	checkAdaptive(t, m)
}

// TestAdaptiveResumeMatchesUninterrupted interrupts an adaptive campaign
// mid-round: the re-derived rounds must spend the same experiments.
func TestAdaptiveResumeMatchesUninterrupted(t *testing.T) {
	m := referenceMode(1, sampleAdaptive)
	m.resume = resumeStopped
	if got := checkAdaptive(t, m); got.replayed == 0 {
		t.Error("the resumed campaign replayed no journal record")
	}
}

// TestCleanInterpByteIdentical runs every application, serial and at four
// ranks, on the full dual-chain interpreter only, against the reference's
// clean-mode code arrays; the reference must have left clean mode.
func TestCleanInterpByteIdentical(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name(), func(t *testing.T) {
			for _, ranks := range []int{1, 4} {
				t.Run(fmt.Sprintf("r%d", ranks), func(t *testing.T) {
					m := referenceMode(ranks, sampleSingle)
					m.interp = interpFull
					refs := map[matrixKey]*reference{}
					got := checkRow(t, m, app, 2015, refs)
					ref := refs[matrixKey{app.Name(), 2015, ranks, sampleSingle}]
					if got.switches != 0 || ref.switches == 0 {
						t.Errorf("%d clean-mode switches on the full interpreter (want 0), %d in the reference (want some)", got.switches, ref.switches)
					}
				})
			}
		})
	}
}

// TestSnapshotForkByteIdentical forks every experiment of every
// application, serial and at four ranks, from its latest usable cut.
func TestSnapshotForkByteIdentical(t *testing.T) {
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-r%d", app.Name(), ranks), func(t *testing.T) {
				m := referenceMode(ranks, sampleSingle)
				m.tail = tailFork
				if got := checkRow(t, m, app, 2015, nil); got.rec.counts.forked == 0 {
					t.Error("the campaign never forked from a snapshot")
				}
			})
		}
	}
}

// TestShardMergeMixedSnapshotModes merges three shards that run without
// snapshots, forking, and forking and exiting.
func TestShardMergeMixedSnapshotModes(t *testing.T) {
	m := referenceMode(1, sampleSingle)
	m.shards, m.mixed = 3, true
	checkRow(t, m, apps.NewMD(), 777, nil)
}

// TestGoldenExitMatchesReference ends experiments of every application at
// golden-equal cuts, serial and at four ranks, where ranks also end
// replaying golden traffic (checkRuns holds every exit and ghost); exits,
// ghost ends and ghost resumes must all have been taken.
func TestGoldenExitMatchesReference(t *testing.T) {
	var c runCounts
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			m := referenceMode(ranks, sampleSingle)
			m.tail = map[int]tailMode{1: tailExit, 4: tailGhosts}[ranks]
			for _, seed := range matrixSeeds {
				c.add(checkRow(t, m, app, seed, nil).rec.counts)
			}
		}
	}
	if c.exited == 0 || c.ghostExits == 0 || c.ghostResumes == 0 {
		t.Errorf("%d exits, %d ghost ends, %d ghost resumes: want each > 0", c.exited, c.ghostExits, c.ghostResumes)
	}
}

// assertSameStudy requires two campaign results to be byte-identical: the
// JSON encoding and the rendered study, every figure and table. On a
// difference it names the first differing experiment and rendered line.
func assertSameStudy(t testing.TB, label string, want, got *CampaignResult) {
	t.Helper()
	wj, gj := mustJSON(t, want), mustJSON(t, got)
	ws, gs := RenderStudy(want), RenderStudy(got)
	if bytes.Equal(wj, gj) && ws == gs {
		return
	}
	t.Errorf("%s: results differ (%d vs %d JSON bytes, tally %v vs %v)", label, len(wj), len(gj), want.Tally, got.Tally)
	for i := range min(len(want.Experiments), len(got.Experiments)) {
		if w, g := want.Experiments[i], got.Experiments[i]; !reflect.DeepEqual(w, g) {
			t.Errorf("%s: first differing experiment [%d]:\n want %+v\n  got %+v", label, i, w, g)
			break
		}
	}
	wl, gl := strings.Split(ws, "\n"), strings.Split(gs, "\n")
	for i := range min(len(wl), len(gl)) {
		if wl[i] != gl[i] {
			t.Errorf("%s: rendered study line %d differs:\n want %s\n  got %s", label, i+1, wl[i], gl[i])
			break
		}
	}
}
