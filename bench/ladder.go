package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	faultprop "repro"
	"repro/internal/archive"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/fpm"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// The ladder times each layer from outside, through the module's public
// functions, one rung per metric family. README.md's interaction table
// says which end-to-end metric each rung should move, on which workload.
// Campaign-sized rungs run prefixes of the verified stall-free windows.

// ladderRun is the state the rungs share.
type ladderRun struct {
	b *bench
	r *report
	// rungTime is how long a rung keeps sampling; --seconds sets it.
	rungTime time.Duration
	span     int
	// err is the first error of any rung; later rungs do not run.
	err error
}

func (l *ladderRun) check(err error) bool {
	if err != nil && l.err == nil {
		l.err = err
	}
	return l.err == nil
}

// rung runs fn under a span of its own unless an earlier rung failed.
func (l *ladderRun) rung(name string, fn func()) {
	if l.err != nil {
		return
	}
	sp := l.b.tracer.begin("rung."+name, l.span, 0)
	fn()
	l.b.tracer.end(sp)
	if l.err != nil {
		l.err = fmt.Errorf("rung %s: %w", name, l.err)
	}
}

// maxSamples caps what one rung keeps: enough for a steady median of
// even a sub-microsecond operation.
const maxSamples = 1000

// sample calls fn until rungTime has passed or maxSamples are taken, and
// at least atLeast times; fn returns one sample.
func (l *ladderRun) sample(atLeast int, fn func() float64) []float64 {
	var out []float64
	start := time.Now()
	for l.err == nil && (len(out) < atLeast || (time.Since(start) < l.rungTime && len(out) < maxSamples)) {
		out = append(out, fn())
	}
	return out
}

// timed returns how long fn took, in units of per.
func timed(per time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(per)
}

func (b *bench) ladder() error {
	l := &ladderRun{b: b, r: b.report, rungTime: time.Duration(b.seconds * float64(10*time.Millisecond))}
	l.span = b.tracer.begin("ladder", -1, 0)
	defer b.tracer.end(l.span)
	l.rung("apps", l.appRungs)
	l.rung("vm.interp", l.interpRungs)
	l.rung("vm.memory", l.memoryRungs)
	l.rung("fpm", l.fpmRungs)
	l.rung("inject", l.injectRung)
	l.rung("mpi", l.mpiRungs)
	l.rung("classify", l.classifyRungs)
	l.rung("core.fork", l.forkRungs)
	l.rung("core.floor", l.floorRungs)
	l.rung("core.deadlock", l.deadlockRung)
	l.rung("harness.apps", l.campaignRungs)
	l.rung("harness.scaling", l.scalingRung)
	l.rung("harness.journal", l.journalRungs)
	l.rung("harness.adaptive", l.adaptiveRung)
	l.rung("service", l.serviceRungs)
	return l.err
}

// appRungs builds, instruments and runs fault-free each application at
// campaign scale: the pieces of a campaign's set-up.
func (l *ladderRun) appRungs() {
	for _, app := range faultprop.Apps() {
		name, p := app.Name(), app.DefaultParams()
		var prog, inst *ir.Program
		var infos []transform.SiteInfo
		var err error
		l.r.add("apps.build_ms."+name, "ms", l.sample(3, func() float64 {
			return timed(time.Millisecond, func() { prog, err = app.Build(p); l.check(err) })
		})...)
		if l.err != nil {
			return
		}
		l.r.add("transform.instrument_ms."+name, "ms", l.sample(3, func() float64 {
			return timed(time.Millisecond, func() {
				inst, infos, err = transform.InstrumentSites(prog, transform.DefaultOptions())
				l.check(err)
			})
		})...)
		if l.err != nil {
			return
		}
		l.r.add("transform.static_sites."+name, "count", float64(len(infos)))
		reuse := core.NewReuse(p.Ranks)
		var cyclesPerS []float64
		l.r.add("core.golden_run_ms."+name, "ms", l.sample(3, func() float64 {
			var out core.RunOutcome
			ms := timed(time.Millisecond, func() {
				out = core.Run(inst, core.RunConfig{Ranks: p.Ranks, SampleEvery: sampleEvery, Reuse: reuse})
			})
			l.check(out.Err)
			cyclesPerS = append(cyclesPerS, float64(out.Cycles)*float64(p.Ranks)/(ms/1000))
			return ms
		})...)
		l.r.add("core.sim_cycles_per_s."+name, "cycles/s", cyclesPerS...)
	}
}

// kernelIters is the trip count of the interpreter kernels: about a
// millisecond of interpretation per sample.
const kernelIters = 100_000

// loopKernel builds main: for i in [0, kernelIters) { body }.
func loopKernel(body func(f *ir.FuncBuilder, i ir.Reg, g int64)) *ir.Builder {
	bld := ir.NewBuilder()
	g := bld.Global("g", 64)
	f := bld.Func("main", 0, 0)
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(kernelIters), func() { body(f, i, g) })
	f.Ret()
	return bld
}

// nsPerCycle runs prog on a fresh VM and returns host ns per virtual
// cycle, and the VM for inspection.
func nsPerCycle(prog *ir.Program, cfg vm.Config) (float64, *vm.VM, error) {
	v := vm.New(prog, cfg)
	start := time.Now()
	err := v.Run()
	return float64(time.Since(start)) / float64(v.Cycles()), v, err
}

func (l *ladderRun) interpRungs() {
	type kernel struct {
		name string
		bld  *ir.Builder
	}
	kernels := []kernel{
		{"int_alu", loopKernel(func(f *ir.FuncBuilder, _ ir.Reg, _ int64) {
			x := f.Add(ir.ImmI(3), ir.ImmI(4))
			y := f.Mul(ir.R(x), ir.ImmI(5))
			f.Xor(ir.R(y), ir.R(x))
		})},
		{"float_alu", loopKernel(func(f *ir.FuncBuilder, _ ir.Reg, _ int64) {
			x := f.FAdd(ir.ImmF(1.5), ir.ImmF(2.5))
			y := f.FMul(ir.R(x), ir.ImmF(0.5))
			f.FDiv(ir.R(y), ir.ImmF(3))
		})},
		{"load_store", loopKernel(func(f *ir.FuncBuilder, _ ir.Reg, _ int64) {
			v := f.Load(ir.ImmI(1))
			f.Store(ir.R(v), ir.ImmI(2))
		})},
	}
	call := ir.NewBuilder()
	callee := call.Func("id", 1, 1)
	callee.Ret(ir.R(callee.Param(0)))
	f := call.Func("main", 0, 0)
	i, ret := f.NewReg(), f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(kernelIters), func() { f.Call("id", []ir.Reg{ret}, ir.R(i)) })
	f.Ret()
	call.SetEntry("main")
	kernels = append(kernels, kernel{"call_ret", call})
	for _, k := range kernels {
		prog, err := k.bld.Build()
		if !l.check(err) {
			return
		}
		l.r.add("vm.ns_per_cycle."+k.name, "ns/cycle", l.sample(3, func() float64 {
			ns, _, err := nsPerCycle(prog, vm.Config{})
			l.check(err)
			return ns
		})...)
	}

	// The instrumented loop g[i&63] += 1: fault-free it runs in the
	// clean-mode interpreter; a flip of the index at site 0 stores to the
	// wrong word, and the contamination keeps it in the dual-chain one.
	prog, err := loopKernel(func(f *ir.FuncBuilder, i ir.Reg, g int64) {
		idx := f.And(ir.R(i), ir.ImmI(63))
		v := f.Ld(ir.ImmI(g), ir.R(idx))
		f.St(ir.R(f.FAdd(ir.R(v), ir.ImmF(1))), ir.ImmI(g), ir.R(idx))
	}).Build()
	if !l.check(err) {
		return
	}
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if !l.check(err) {
		return
	}
	fault := inject.Plan{Faults: []inject.Fault{{Rank: 0, Site: 0, Bit: 1}}}
	for _, mode := range []struct {
		name string
		plan inject.Plan
	}{{"clean", inject.Plan{}}, {"dual", fault}} {
		l.r.add("vm.ns_per_cycle."+mode.name, "ns/cycle", l.sample(3, func() float64 {
			ns, v, err := nsPerCycle(inst, vm.Config{Injector: inject.NewRankInjector(mode.plan, 0)})
			l.check(err)
			if contaminated := v.Table().Len() > 0; contaminated != (mode.name == "dual") {
				l.check(fmt.Errorf("%s kernel ended with %d contaminated words", mode.name, v.Table().Len()))
			}
			return ns
		})...)
	}
}

// memWords is the heap the memory rungs snapshot and restore (2 MiB);
// blockWords is the vm's dirty-tracking granularity (512-byte blocks).
const (
	memWords   = 1 << 18
	blockWords = 64
)

func (l *ladderRun) memoryRungs() {
	m := vm.NewMemory(1<<20, 0)
	base, ok := m.Alloc(memWords)
	if !ok {
		l.check(errors.New("vm.Memory.Alloc failed"))
		return
	}
	for i := int64(0); i < memWords; i++ {
		m.Write(base+i, uint64(i)|1)
	}
	var snap *vm.MemSnap
	l.r.add("vm.mem_snapshot_us", "us", l.sample(3, func() float64 {
		return timed(time.Microsecond, func() { snap = m.Snapshot(snap) })
	})...)
	blocks := int64(memWords / blockWords)
	for _, pct := range dirtyPcts {
		var copied []float64
		us := l.sample(3, func() float64 {
			for blk := int64(0); blk < blocks*int64(pct)/100; blk++ {
				m.Write(base+blk*blockWords, 0)
			}
			var st vm.RestoreStats
			d := timed(time.Microsecond, func() { st = m.RestoreSnap(snap) })
			copied = append(copied, float64(st.Bytes))
			return d
		})
		l.r.add(fmt.Sprintf("vm.mem_restore_us.dirty%dpct", pct), "us", us...)
		l.r.add(fmt.Sprintf("vm.mem_restore_bytes.dirty%dpct", pct), "bytes", copied...)
	}
}

func (l *ladderRun) fpmRungs() {
	const addrs = 4096
	t := fpm.NewTable()
	l.r.add("fpm.observe_ns", "ns", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			for i := 0; i < addrs; i++ {
				t.Observe(int64(i), uint64(i), uint64(i+1))
			}
		}) / addrs
	})...)
	t = fpm.NewTable()
	l.r.add("fpm.record_cleanse_ns", "ns", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			for i := 0; i < addrs; i++ {
				t.Record(int64(i), uint64(i))
			}
			for i := 0; i < addrs; i++ {
				t.Cleanse(int64(i))
			}
		}) / addrs
	})...)
	for a := int64(0); a < addrs; a += 3 {
		t.Record(a, uint64(a))
	}
	const words = 512
	var recs []fpm.MsgRecord
	l.r.add("fpm.append_range_ns_per_word", "ns/word", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			for i := 0; i < 64; i++ {
				recs = t.AppendRange(recs[:0], 1024, words)
			}
		}) / (64 * words)
	})...)
	snap := t.Snapshot(nil)
	l.r.add("fpm.table_restore_us", "us", l.sample(3, func() float64 {
		for a := int64(1); a < 256; a += 3 {
			t.Record(a, 7)
			t.Cleanse(a - 1)
		}
		return timed(time.Microsecond, func() { t.RestoreSnap(snap) })
	})...)
}

func (l *ladderRun) injectRung() {
	sites := []uint64{90000, 90000, 90000, 90000, 90000, 90000, 90000, 90000}
	const plans = 1024
	l.r.add("inject.plan_ns", "ns", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			for i := uint64(0); i < plans; i++ {
				_, err := inject.UniformSinglePlan(xrand.At(l.b.campaignSeed, i), sites)
				l.check(err)
			}
		}) / plans
	})...)
}

func (l *ladderRun) mpiRungs() {
	const trips = 1000
	l.r.add("mpi.pingpong_ns", "ns", l.sample(3, func() float64 {
		job := mpi.NewJob(2, 0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := job.Endpoint(1)
			for i := 0; i < trips; i++ {
				msg, err := ep.Recv(0, 1)
				if err == nil {
					err = ep.Send(0, 2, msg)
				}
				if err != nil {
					job.Kill()
					return
				}
			}
		}()
		ep := job.Endpoint(0)
		msg := make([]byte, 64)
		ns := timed(time.Nanosecond, func() {
			for i := 0; i < trips; i++ {
				err := ep.Send(1, 1, msg)
				if err == nil {
					msg, err = ep.Recv(1, 2)
				}
				if !l.check(err) {
					job.Kill()
					return
				}
			}
		})
		wg.Wait()
		return ns / trips
	})...)

	const ranks, rounds = 8, 200
	l.r.add("mpi.allreduce_us.r8", "us", l.sample(3, func() float64 {
		job := mpi.NewJob(ranks, 0)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		us := timed(time.Microsecond, func() {
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ep := job.Endpoint(r)
					prim, prist := []uint64{uint64(r)}, []uint64{uint64(r)}
					for i := 0; i < rounds && errs[r] == nil; i++ {
						_, _, errs[r] = ep.Allreduce(prim, prist, ir.ReduceSum, false)
					}
					if errs[r] != nil {
						job.Kill()
					}
				}(r)
			}
			wg.Wait()
		})
		l.check(errors.Join(errs...))
		return us / rounds
	})...)

	job := mpi.NewJob(ranks, 0)
	l.r.add("mpi.job_recycle_us", "us", l.sample(3, func() float64 {
		return timed(time.Microsecond, func() {
			if !job.Recycle(ranks, 0) {
				l.check(errors.New("mpi.Job.Recycle refused an idle job"))
			}
		})
	})...)
}

func (l *ladderRun) classifyRungs() {
	const outputs, calls = 128, 1024
	golden := classify.Golden{Outputs: make([]float64, outputs), Cycles: 1000, Iterations: 10}
	for i := range golden.Outputs {
		golden.Outputs[i] = float64(i + 1)
	}
	run := classify.RunResult{Outputs: golden.Outputs, Cycles: 1000, Iterations: 10, EverContaminated: true}
	criteria := classify.DefaultCriteria()
	l.r.add("classify.classify_ns", "ns", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			for i := 0; i < calls; i++ {
				if o := criteria.Classify(golden, run); o != classify.OutputNotAffected {
					l.check(fmt.Errorf("classify: got %v", o))
				}
			}
		}) / calls
	})...)
	points := make([]trace.Point, 100)
	for i := range points {
		points[i] = trace.Point{Cycles: int64(1000 * (i + 1)), CML: min(3*i, 180)}
	}
	l.r.add("model.fitrun_ns_per_100pts", "ns", l.sample(3, func() float64 {
		return timed(time.Nanosecond, func() {
			_, err := model.FitRun(points)
			l.check(err)
		})
	})...)
}

// instrumented builds and instruments an application.
func instrumented(app faultprop.App, p faultprop.Params) (*ir.Program, error) {
	prog, err := app.Build(p)
	if err != nil {
		return nil, err
	}
	return transform.Instrument(prog, transform.DefaultOptions())
}

// forkRungs times the snapshot-fork machinery on LULESH at campaign
// scale: the quiesce profile, the capture run, and experiments forked
// from a mid-run snapshot with the campaign's own fault plans.
func (l *ladderRun) forkRungs() {
	app := faultprop.AppByName("LULESH")
	p := app.DefaultParams()
	inst, err := instrumented(app, p)
	if !l.check(err) {
		return
	}
	reuse := core.NewReuse(p.Ranks)
	cfg := core.RunConfig{Ranks: p.Ranks, SampleEvery: sampleEvery, Reuse: reuse}
	var golden core.RunOutcome
	var cuts []core.SiteCut
	l.r.add("core.profile_ms", "ms", l.sample(3, func() float64 {
		return timed(time.Millisecond, func() { golden, cuts = core.RunGoldenProfile(inst, cfg) })
	})...)
	if !l.check(golden.Err) {
		return
	}
	if len(cuts) < 16 {
		l.check(fmt.Errorf("LULESH has only %d quiesce points", len(cuts)))
		return
	}
	seqs := make([]uint64, 16)
	for i := range seqs {
		seqs[i] = cuts[i*len(cuts)/len(seqs)].Seq
	}
	var snaps []*core.CampaignSnapshot
	l.r.add("core.capture_ms_per_snapshot", "ms", l.sample(3, func() float64 {
		for _, s := range snaps {
			reuse.ReleaseSnapshot(s)
		}
		return timed(time.Millisecond, func() { _, snaps = core.RunGoldenCapture(inst, cfg, seqs) }) / float64(len(seqs))
	})...)
	if len(snaps) != len(seqs) {
		l.check(fmt.Errorf("captured %d of %d snapshots", len(snaps), len(seqs)))
		return
	}
	snap := snaps[len(snaps)/2]
	var plans []inject.Plan
	for id := uint64(0); len(plans) < 32 && id < uint64(l.b.sc.luleshRuns); id++ {
		plan, err := inject.UniformSinglePlan(xrand.At(l.b.campaignSeed, id), golden.SiteCounts())
		if !l.check(err) {
			return
		}
		if snap.Usable(plan) {
			plans = append(plans, plan)
		}
	}
	if len(plans) == 0 {
		l.check(errors.New("no fault plan can fork from the mid-run snapshot"))
		return
	}
	worker := core.NewReuse(p.Ranks)
	var copied, share []float64
	next := 0
	l.r.add("core.resumed_run_us", "us", l.sample(len(plans), func() float64 {
		rcfg := core.RunConfig{
			Ranks: p.Ranks, SampleEvery: sampleEvery, Reuse: worker,
			CycleLimit: 4 * golden.Cycles, Plan: plans[next%len(plans)],
		}
		next++
		var out core.RunOutcome
		us := timed(time.Microsecond, func() { out = core.RunResumed(inst, rcfg, snap) })
		copied = append(copied, float64(out.RestoreBytes))
		share = append(share, float64(out.RestoreDur)/float64(time.Microsecond)/us)
		return us
	})...)
	l.r.add("core.restore_bytes_per_run", "bytes", copied...)
	l.r.add("core.restore_share", "ratio", share...)
}

// floorRungs times a run that does nothing: what one experiment costs
// before its first instruction (job recycle, rank goroutines, collection).
func (l *ladderRun) floorRungs() {
	bld := ir.NewBuilder()
	bld.Func("main", 0, 0).Ret()
	prog, err := bld.Build()
	if !l.check(err) {
		return
	}
	for _, ranks := range []int{4, 8} {
		reuse := core.NewReuse(ranks)
		l.r.add(fmt.Sprintf("core.run_floor_us.r%d", ranks), "us", l.sample(16, func() float64 {
			var out core.RunOutcome
			us := timed(time.Microsecond, func() { out = core.Run(prog, core.RunConfig{Ranks: ranks, Reuse: reuse}) })
			l.check(out.Err)
			return us
		})...)
	}
}

// deadlockRung runs amg-tail's pinned plan on its own with a short mpi
// timeout: about the timeout today, about a millisecond once deadlocks
// are detected. It doubles as the check that the pin still reproduces.
func (l *ladderRun) deadlockRung() {
	app := faultprop.AppByName("AMG2013")
	p := app.TestParams()
	inst, err := instrumented(app, p)
	if !l.check(err) {
		return
	}
	golden := core.Run(inst, core.RunConfig{Ranks: p.Ranks, SampleEvery: sampleEvery})
	if !l.check(golden.Err) {
		return
	}
	plan, err := inject.UniformSinglePlan(xrand.At(amgSeed, amgStallID), golden.SiteCounts())
	if !l.check(err) {
		return
	}
	timeout := l.b.sc.deadlockTimeout
	ms := timed(time.Millisecond, func() {
		core.Run(inst, core.RunConfig{
			Ranks: p.Ranks, SampleEvery: sampleEvery, CycleLimit: 4 * golden.Cycles,
			Plan: plan, Timeout: timeout,
		})
	})
	l.r.add("core.deadlock_run_ms", "ms", ms)
	if ms < 0.9*float64(timeout)/float64(time.Millisecond) {
		l.r.note("deadlock_reproduced=false: plan %v of AMG2013 ended in %.1f ms, before the %v mpi timeout; if deadlocks are now detected this is the gain amg-tail exists to show, otherwise re-pin it (README.md, stall survey)", plan, ms, timeout)
	}
}

// ladderCampaign is a small campaign of a ladder rung: test scale, one
// worker, a prefix of the verified window.
func (l *ladderRun) ladderCampaign(app faultprop.App, ranks, runs int) faultprop.CampaignConfig {
	p := app.TestParams()
	p.Ranks = ranks
	return faultprop.CampaignConfig{
		App: app, Params: p,
		Sampling:  faultprop.Sampling{Runs: runs, Seed: l.b.campaignSeed},
		Execution: faultprop.Execution{Workers: 1, Snapshots: snapshots, SampleEvery: sampleEvery},
	}
}

// rate runs cfg once and returns experiments per second.
func (l *ladderRun) rate(cfg faultprop.CampaignConfig) (float64, campaignRun) {
	run := runCampaign(context.Background(), cfg, nil)
	l.check(run.err)
	return float64(cfg.Runs) / run.wall.Seconds(), run
}

// campaignRungs runs every application on one and on four ranks, then
// shards one of those campaigns four ways: the merged partials must give
// the unsharded bytes.
func (l *ladderRun) campaignRungs() {
	runs := l.b.sc.ladderRuns
	var lulesh4 campaignRun
	for _, app := range faultprop.Apps() {
		for _, ranks := range []int{1, 4} {
			cfg := l.ladderCampaign(app, ranks, runs)
			var last campaignRun
			l.r.add(fmt.Sprintf("harness.runs_per_s.%s.r%d", app.Name(), ranks), "experiments/s", l.sample(1, func() float64 {
				rate, run := l.rate(cfg)
				last = run
				return rate
			})...)
			if app.Name() == "LULESH" && ranks == 4 {
				lulesh4 = last
			}
		}
	}
	if l.err != nil {
		return
	}

	cfg := l.ladderCampaign(faultprop.AppByName("LULESH"), 4, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.rate(cfg)
	runtime.ReadMemStats(&after)
	l.r.add("harness.alloc_kb_per_exp", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(runs))
	l.r.add("harness.allocs_per_exp", "count", float64(after.Mallocs-before.Mallocs)/float64(runs))

	specs, err := faultprop.PlanShards(cfg, 4)
	if !l.check(err) {
		return
	}
	parts := make([]*faultprop.PartialResult, len(specs))
	for i, spec := range specs {
		if parts[i], err = faultprop.RunShard(cfg, spec); !l.check(err) {
			return
		}
	}
	var merged *faultprop.CampaignResult
	l.r.add("harness.merge_partials_ms", "ms", l.sample(3, func() float64 {
		fresh := make([]*faultprop.PartialResult, len(parts))
		for i, p := range parts {
			fresh[i] = p.Clone()
		}
		return timed(time.Millisecond, func() { merged, err = faultprop.MergePartials(fresh...); l.check(err) })
	})...)
	if l.err != nil {
		return
	}
	l.r.attempt(runs, 0)
	if got, err := json.Marshal(merged); l.check(err) {
		l.r.compare(runs, "MergePartials of 4 shards and the unsharded LULESH campaign", lulesh4.result, got)
	}
}

// scalingRung compares LULESH at test scale on one worker and on one per
// CPU: the rate at nproc workers over nproc times the rate at one.
func (l *ladderRun) scalingRung() {
	n := runtime.NumCPU()
	cfg := l.ladderCampaign(faultprop.AppByName("LULESH"), 4, 4*l.b.sc.ladderRuns)
	one, _ := l.rate(cfg)
	cfg.Workers = n
	many, _ := l.rate(cfg)
	l.r.add("harness.scaling_efficiency", "ratio", many/(float64(n)*one))
}

// journalRungs times what a checkpoint journal adds to an experiment
// (the same campaign with and without one, alternating) and how fast a
// complete journal replays. miniFE on one rank has the shortest
// experiments (0.1 ms), which makes the journal's share largest. The
// journaled campaign's result and journal then time the archive.
func (l *ladderRun) journalRungs() {
	runs := 4 * l.b.sc.ladderRuns
	cfg := l.ladderCampaign(faultprop.AppByName("miniFE"), 1, runs)
	journaled := cfg
	journaled.Checkpoint = filepath.Join(l.b.tmp, "ladder-journal.jsonl")
	var last campaignRun
	l.r.add("harness.journal_append_us", "us", l.sample(3, func() float64 {
		plain := runCampaign(context.Background(), cfg, nil)
		last = runCampaign(context.Background(), journaled, nil)
		l.check(errors.Join(plain.err, last.err))
		return float64(last.wall-plain.wall) / float64(time.Microsecond) / float64(runs)
	})...)
	if l.err != nil {
		return
	}
	resume := journaled
	resume.Resume = true
	l.r.add("harness.resume_records_per_s", "records/s", l.sample(3, func() float64 {
		run := runCampaign(context.Background(), resume, nil)
		l.check(run.err)
		return float64(runs) / run.wall.Seconds()
	})...)

	arch, err := archive.Open(filepath.Join(l.b.tmp, "ladder-archive"))
	if !l.check(err) {
		return
	}
	n := 0
	var keys []string
	l.r.add("archive.put_ms", "ms", l.sample(3, func() float64 {
		n++
		keys = append(keys, fmt.Sprintf("ladder%d", n))
		meta := archive.Meta{Fingerprint: keys[n-1], App: "miniFE", Runs: runs, Seed: cfg.Seed}
		return timed(time.Millisecond, func() { l.check(arch.Put(meta, last.result, journaled.Checkpoint)) })
	})...)
	n = 0
	l.r.add("archive.get_ms", "ms", l.sample(3, func() float64 {
		n++
		return timed(time.Millisecond, func() {
			rec, err := arch.Get(keys[n%len(keys)])
			if l.check(err) && !bytes.Equal(rec.Result, last.result) {
				l.check(errors.New("archive.Get returned other bytes than Put stored"))
			}
		})
	})...)
}

// adaptiveRung runs the adaptive planner on miniFE: experiments spent per
// second until every stratum's Wilson interval is within the target.
func (l *ladderRun) adaptiveRung() {
	cfg := l.ladderCampaign(faultprop.AppByName("miniFE"), 4, l.b.sc.adaptiveRuns)
	cfg.TargetCI = 0.05
	l.r.add("harness.adaptive_runs_per_s", "experiments/s", l.sample(1, func() float64 {
		run := runCampaign(context.Background(), cfg, nil)
		l.check(run.err)
		return float64(len(run.comps)) / run.wall.Seconds()
	})...)
}

// serviceRungs drives a fleet of its own with a few jobs of each kind
// and takes the legs of a job apart; the same specs run in this process
// give what the service adds.
func (l *ladderRun) serviceRungs() {
	sc := l.b.sc
	sc.missJobs, sc.shardedJobs = 10, 2
	f, err := startFleet(filepath.Join(l.b.tmp, "ladder-fleet"))
	if !l.check(err) {
		return
	}
	defer func() { l.check(f.stop()) }()
	ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
	defer cancel()

	rd := l.b.runRound(ctx, f, sc, 0, nil, -1)
	if len(rd.miss.runs) == 0 || len(rd.hit.runs) == 0 || len(rd.sharded.runs) == 0 {
		l.check(errors.New("a phase completed no job"))
		return
	}
	ms := func(pick func(jobRun) time.Duration, runs []jobRun) []float64 {
		out := make([]float64, len(runs))
		for i, j := range runs {
			out[i] = float64(pick(j)) / float64(time.Millisecond)
		}
		return out
	}
	l.r.add("service.submit_ms", "ms", ms(func(j jobRun) time.Duration { return j.submit }, rd.miss.runs)...)
	l.r.add("service.queue_wait_ms", "ms", ms(func(j jobRun) time.Duration { return j.queueWait }, rd.miss.runs)...)
	l.r.add("service.result_fetch_ms", "ms", ms(func(j jobRun) time.Duration { return j.fetch }, rd.miss.runs)...)
	l.r.add("service.job_miss_p50_ms", "ms", rd.miss.latenciesMS()...)
	l.r.add("service.job_hit_p50_ms", "ms", rd.hit.latenciesMS()...)
	l.r.add("service.job_sharded_p50_ms", "ms", rd.sharded.latenciesMS()...)

	var local []float64
	for _, spec := range rd.missSpecs {
		run := localRun(spec, nil)
		if !l.check(run.err) {
			return
		}
		local = append(local, float64(run.wall)/float64(time.Millisecond))
	}
	l.r.add("service.overhead_ms", "ms", median(rd.miss.latenciesMS())-median(local))
	l.r.add("service.shard_overhead_ms", "ms", median(rd.sharded.latenciesMS())-median(local))

	l.r.add("service.metrics_scrape_ms", "ms", l.sample(3, func() float64 {
		return timed(time.Millisecond, func() { _, err := f.coord.Metrics(ctx); l.check(err) })
	})...)

	// One client per CPU, each with its own distinct cache-miss jobs.
	clients := runtime.NumCPU()
	sc.missJobs = 5 * clients
	specs, _ := jobSpecs(l.b.campaignSeed, sc, 1)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	wall := timed(time.Second, func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, spec := range specs[5*c : 5*c+5] {
					if _, err := runJob(ctx, f.coord, spec, nil, -1, 0); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
	})
	l.check(errors.Join(errs...))
	l.r.add("service.concurrent_jobs_per_s", "jobs/s", float64(len(specs))/wall)
}
