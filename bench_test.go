// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus ablations of the
// design choices the paper motivates. Each benchmark runs a reduced-scale
// campaign (the paper uses 5,000 runs on 1,024 cores; cmd/campaign scales
// up) and reports the exhibit's headline numbers as benchmark metrics.
//
// Run with:
//
//	go test -bench=. -benchmem .
package faultprop_test

import (
	"strings"
	"testing"

	faultprop "repro"
	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/transform"
	"repro/internal/vm"
	"repro/internal/xrand"
)

const benchRuns = 30 // experiments per app per benchmark iteration

func benchCampaign(b *testing.B, app apps.App, runs int) *harness.CampaignResult {
	b.Helper()
	res, err := harness.RunCampaign(harness.CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: harness.Sampling{Runs: runs, Seed: 2015}, Execution: harness.Execution{SampleEvery: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1PropagationCases regenerates Table 1: the four
// operand-dependent propagation cases executed under the FPM.
func BenchmarkTable1PropagationCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1()
		if err != nil {
			b.Fatal(err)
		}
		want := []bool{true, false, true, false}
		for j, r := range rows {
			if r.Contaminates != want[j] {
				b.Fatalf("row %d: contaminates=%v, want %v", j+1, r.Contaminates, want[j])
			}
		}
	}
}

// BenchmarkFig1MatVec regenerates Fig. 1: the iterative matrix-vector
// product contaminating 37.5% of its state in three iterations.
func BenchmarkFig1MatVec(b *testing.B) {
	bld := faultpropMatVec()
	inst, err := transform.Instrument(bld, transform.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var pct float64
	for i := 0; i < b.N; i++ {
		v := vm.New(inst, vm.Config{
			MemFaults: []vm.MemFault{{AtCycle: 1, AddrUnit: 15.0 / 24.0, Bit: 51}},
		})
		if err := v.Run(); err != nil {
			b.Fatal(err)
		}
		pct = 100 * float64(v.Table().Len()) / float64(v.Mem().AllocatedWords())
	}
	b.ReportMetric(pct, "%state")
}

// faultpropMatVec builds the Fig. 1 program (same as examples/quickstart).
func faultpropMatVec() *ir.Program {
	bld := ir.NewBuilder()
	aAddr := bld.Global("A", 16)
	xAddr := bld.Global("x", 4)
	bAddr := bld.Global("b", 4)
	bld.GlobalInitF("A", []float64{1, 2, 3, 4, 4, 2, 3, 1, 2, 4, 3, 3, 1, 1, 2, 6})
	bld.GlobalInitF("x", []float64{1, 2, 2, 3})
	f := bld.Func("main", 0, 0)
	it, row, col := f.NewReg(), f.NewReg(), f.NewReg()
	f.For(it, ir.ImmI(0), ir.ImmI(3), func() {
		f.Tick(ir.R(it))
		f.For(row, ir.ImmI(0), ir.ImmI(4), func() {
			acc := f.CF(0)
			f.For(col, ir.ImmI(0), ir.ImmI(4), func() {
				aij := f.Ld(ir.ImmI(aAddr), ir.R(f.Add(ir.R(f.Mul(ir.R(row), ir.ImmI(4))), ir.R(col))))
				xj := f.Ld(ir.ImmI(xAddr), ir.R(col))
				f.Op3(ir.FAdd, acc, ir.R(acc), ir.R(f.FMul(ir.R(aij), ir.R(xj))))
			})
			f.St(ir.R(acc), ir.ImmI(bAddr), ir.R(row))
		})
		f.For(row, ir.ImmI(0), ir.ImmI(4), func() {
			f.St(ir.R(f.Ld(ir.ImmI(bAddr), ir.R(row))), ir.ImmI(xAddr), ir.R(row))
		})
	})
	f.Ret()
	return bld.MustBuild()
}

// BenchmarkFig3Instrumentation measures the FPM pass itself over the five
// applications.
func BenchmarkFig3Instrumentation(b *testing.B) {
	var progs []*ir.Program
	for _, app := range faultprop.Apps() {
		p, err := app.Build(app.TestParams())
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := transform.Instrument(p, transform.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5InjectionCoverage regenerates Fig. 5: injection times must
// be uniform over the execution (χ² at the 1% level).
func BenchmarkFig5InjectionCoverage(b *testing.B) {
	var chi2 float64
	var ok bool
	for i := 0; i < b.N; i++ {
		res := benchCampaign(b, apps.NewHydro(), 100)
		h := stats.NewHistogram(0, 1, 20)
		for _, e := range res.Experiments {
			if e.Fired && res.Golden.Cycles > 0 {
				h.Add(float64(e.InjCycle) / float64(res.Golden.Cycles))
			}
		}
		chi2, _ = h.ChiSquareUniform()
		ok = h.ChiSquareUniformOK()
	}
	if !ok {
		b.Errorf("injection coverage not uniform: chi2=%.1f", chi2)
	}
	b.ReportMetric(chi2, "chi2")
}

// BenchmarkFig6OutcomeBreakdown regenerates Fig. 6 for all five apps.
func BenchmarkFig6OutcomeBreakdown(b *testing.B) {
	var results []*harness.CampaignResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, app := range faultprop.Apps() {
			results = append(results, benchCampaign(b, app, benchRuns))
		}
	}
	text := harness.FormatFig6(results)
	if !strings.Contains(text, "LULESH") {
		b.Fatal("malformed figure")
	}
	b.Logf("\n%s", text)
	b.ReportMetric(results[0].Tally.PercentCO(), "LULESH-CO%")
	b.ReportMetric(results[1].Tally.Percent(classify.WrongOutput), "LAMMPS-WO%")
}

// BenchmarkFig7PropagationProfiles regenerates the per-app propagation
// profiles and the 7f contamination maxima.
func BenchmarkFig7PropagationProfiles(b *testing.B) {
	var results []*harness.CampaignResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, app := range faultprop.Apps() {
			results = append(results, benchCampaign(b, app, benchRuns))
		}
	}
	profiles := 0
	for _, r := range results {
		profiles += len(r.Profiles)
		b.Logf("\n%s", harness.FormatFig7(r))
	}
	if profiles == 0 {
		b.Error("no propagation profiles recorded")
	}
	b.Logf("\n%s", harness.FormatFig7f(results))
	b.ReportMetric(float64(profiles), "profiles")
}

// BenchmarkFig7fMaxContamination reports the largest contaminated-state
// percentage seen for the LULESH proxy (the paper reports up to 25%).
func BenchmarkFig7fMaxContamination(b *testing.B) {
	var maxPct float64
	for i := 0; i < b.N; i++ {
		res := benchCampaign(b, apps.NewHydro(), 60)
		maxPct = 0
		for _, e := range res.Experiments {
			if e.ContamPct > maxPct {
				maxPct = e.ContamPct
			}
		}
	}
	b.ReportMetric(maxPct, "max%state")
}

// BenchmarkFig8RankSpread regenerates Fig. 8: contamination crossing MPI
// rank boundaries for the hydro and FE proxies.
func BenchmarkFig8RankSpread(b *testing.B) {
	var spreadH, spreadF int
	for i := 0; i < b.N; i++ {
		h := benchCampaign(b, apps.NewHydro(), 40)
		f := benchCampaign(b, apps.NewFE(), 40)
		spreadH = len(h.BestSpread.Points)
		spreadF = len(f.BestSpread.Points)
		b.Logf("\n%s", harness.FormatFig8([]*harness.CampaignResult{h, f}))
	}
	if spreadH < 2 || spreadF < 2 {
		b.Errorf("contamination did not cross ranks: hydro=%d fe=%d", spreadH, spreadF)
	}
	b.ReportMetric(float64(spreadH), "hydro-ranks")
	b.ReportMetric(float64(spreadF), "fe-ranks")
}

// BenchmarkTable2FPSFactors regenerates Table 2: the fault propagation
// speed factor per application.
func BenchmarkTable2FPSFactors(b *testing.B) {
	var results []*harness.CampaignResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, app := range faultprop.Apps() {
			results = append(results, benchCampaign(b, app, benchRuns))
		}
	}
	b.Logf("\n%s", harness.FormatTable2(results))
	b.Logf("FPS order: %s", strings.Join(harness.SortedFPS(results), " > "))
	for _, r := range results {
		if len(r.Model.Fits) > 0 && r.Model.FPS <= 0 {
			b.Errorf("%s: non-positive FPS with fits", r.App)
		}
	}
	b.ReportMetric(results[0].Model.FPS, "LULESH-FPS")
}

// BenchmarkCOBreakdownVvsONA regenerates the §4.3 analysis: correct-output
// runs whose memory was nevertheless contaminated.
func BenchmarkCOBreakdownVvsONA(b *testing.B) {
	var results []*harness.CampaignResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, app := range faultprop.Apps() {
			results = append(results, benchCampaign(b, app, benchRuns))
		}
	}
	b.Logf("\n%s", harness.FormatCOBreakdown(results))
	onaShare := 0.0
	co := 0
	for _, r := range results {
		co += r.Tally.Counts[classify.Vanished] + r.Tally.Counts[classify.OutputNotAffected]
		onaShare += float64(r.Tally.Counts[classify.OutputNotAffected])
	}
	if co > 0 {
		b.ReportMetric(100*onaShare/float64(co), "ONA/CO%")
	}
}

// BenchmarkAblationNaiveTaint compares the exact dual-chain tracker against
// the naive "any tainted input taints the output" baseline the paper argues
// against (§3.2): the metric is the taint overestimation factor.
func BenchmarkAblationNaiveTaint(b *testing.B) {
	app := apps.NewHydro()
	prog, err := app.Build(apps.Params{Ranks: 1, Size: 16, Steps: 10})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	golden := core.Run(inst, core.RunConfig{Ranks: 1})
	if golden.Err != nil {
		b.Fatal(golden.Err)
	}
	var taintSum, exactSum float64
	for i := 0; i < b.N; i++ {
		r := xrand.New(uint64(i) + 9)
		taintSum, exactSum = 0, 0
		for k := 0; k < 40; k++ {
			plan, err := inject.UniformSinglePlan(r, golden.SiteCounts())
			if err != nil {
				b.Fatal(err)
			}
			run := core.Run(inst, core.RunConfig{
				Ranks: 1, Plan: plan,
				CycleLimit: golden.Cycles * 4,
				TrackTaint: true,
			})
			if run.Err != nil {
				continue
			}
			taintSum += float64(run.TaintPeakTotal)
			exactSum += float64(run.MaxCMLTotal)
			if run.TaintPeakTotal < run.MaxCMLTotal {
				b.Fatalf("taint %d < exact %d", run.TaintPeakTotal, run.MaxCMLTotal)
			}
		}
	}
	if exactSum > 0 {
		b.ReportMetric(taintSum/exactSum, "overestimate×")
	}
}

// BenchmarkAblationMemoryInjection contrasts register-level injection (the
// paper's model) with direct memory injection (the Li et al. model): the
// memory model cannot vanish at processor level, so its Vanished share is
// zero while register-level injection masks a meaningful fraction.
func BenchmarkAblationMemoryInjection(b *testing.B) {
	app := apps.NewHydro()
	p := app.TestParams()
	prog, err := app.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	golden := core.Run(inst, core.RunConfig{Ranks: p.Ranks})
	if golden.Err != nil {
		b.Fatal(golden.Err)
	}
	var memVanished, memApplied int
	for i := 0; i < b.N; i++ {
		r := xrand.New(77)
		memVanished, memApplied = 0, 0
		for k := 0; k < 30; k++ {
			mf := map[int][]vm.MemFault{
				r.Intn(p.Ranks): {{
					AtCycle:  r.Uint64n(golden.Cycles),
					AddrUnit: r.Float64(),
					Bit:      uint(r.Intn(64)),
				}},
			}
			run := core.Run(inst, core.RunConfig{
				Ranks: p.Ranks, MemFaults: mf,
				CycleLimit: golden.Cycles * 4,
			})
			applied := 0
			for _, rr := range run.Ranks {
				applied += rr.MemFaultsApplied
			}
			if applied == 0 {
				continue
			}
			memApplied++
			if !run.Ever {
				memVanished++
			}
		}
	}
	b.ReportMetric(float64(memApplied), "applied/30")
	if memApplied > 0 {
		b.ReportMetric(100*float64(memVanished)/float64(memApplied), "mem-V%")
	}
}

// BenchmarkAblationMultiFault exercises LLFI++'s zero-or-more-faults-per-
// rank mode and reports how outcome severity shifts against single-fault
// injection.
func BenchmarkAblationMultiFault(b *testing.B) {
	var single, multi *harness.CampaignResult
	for i := 0; i < b.N; i++ {
		var err error
		single, err = harness.RunCampaign(harness.CampaignConfig{
			App: apps.NewHydro(), Params: apps.NewHydro().TestParams(), Sampling: harness.Sampling{Runs: benchRuns, Seed: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		multi, err = harness.RunCampaign(harness.CampaignConfig{
			App: apps.NewHydro(), Params: apps.NewHydro().TestParams(), Sampling: harness.Sampling{Runs: benchRuns, Seed: 5, MultiFaultLambda: 3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(single.Tally.PercentCO(), "single-CO%")
	b.ReportMetric(multi.Tally.PercentCO(), "multi-CO%")
}

// BenchmarkAblationInjectionClasses compares the paper's default
// arithmetic-class injection sites against also injecting into load/store
// operands (§3.1 says both classes are supported; §4.2 uses arithmetic):
// address-register flips raise the crash rate.
func BenchmarkAblationInjectionClasses(b *testing.B) {
	app := apps.NewHydro()
	p := app.TestParams()
	prog, err := app.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	crashRate := func(opts transform.Options, seed uint64) float64 {
		inst, err := transform.Instrument(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		golden := core.Run(inst, core.RunConfig{Ranks: p.Ranks})
		if golden.Err != nil {
			b.Fatal(golden.Err)
		}
		r := xrand.New(seed)
		crashes, runs := 0, 30
		for k := 0; k < runs; k++ {
			plan, err := inject.UniformSinglePlan(r, golden.SiteCounts())
			if err != nil {
				b.Fatal(err)
			}
			run := core.Run(inst, core.RunConfig{
				Ranks: p.Ranks, Plan: plan, CycleLimit: golden.Cycles * 4,
			})
			if run.Err != nil {
				crashes++
			}
		}
		return 100 * float64(crashes) / float64(runs)
	}
	var arith, withMem float64
	for i := 0; i < b.N; i++ {
		arith = crashRate(transform.Options{InjectClasses: ir.ClassArith}, 21)
		withMem = crashRate(transform.Options{InjectClasses: ir.ClassArith | ir.ClassMem}, 21)
	}
	b.ReportMetric(arith, "arith-C%")
	b.ReportMetric(withMem, "arith+mem-C%")
}

// BenchmarkRecoveryPolicy evaluates the paper's §5 use case: FPS-model-
// driven rollback decisions versus always/never rolling back, reporting
// the compute wasted by each strategy over a campaign.
func BenchmarkRecoveryPolicy(b *testing.B) {
	var rep recovery.Report
	for i := 0; i < b.N; i++ {
		res := benchCampaign(b, apps.NewHydro(), 60)
		cfg := recovery.Config{
			Model:              res.Model,
			ThresholdCML:       20,
			DetectionLatency:   2e-6,
			CheckpointInterval: 5e-6,
		}
		rep = recovery.Evaluate(cfg, res)
		b.Logf("\n%s", rep.Format())
	}
	b.ReportMetric(rep.WastePolicy*1e6, "policy-waste-us")
	b.ReportMetric(rep.WasteAlways*1e6, "always-waste-us")
	b.ReportMetric(rep.WasteNever*1e6, "never-waste-us")
}

// BenchmarkDVFStructureBreakdown regenerates the per-data-structure
// vulnerability analysis (the §6 DVF comparison): which structures
// accumulate the contamination.
func BenchmarkDVFStructureBreakdown(b *testing.B) {
	var res *harness.CampaignResult
	for i := 0; i < b.N; i++ {
		res = benchCampaign(b, apps.NewFE(), benchRuns)
	}
	text := harness.FormatStructVulnerability([]*harness.CampaignResult{res})
	b.Logf("\n%s", text)
	total := 0
	for _, v := range res.StructTotals {
		total += v
	}
	b.ReportMetric(float64(total), "struct-CML")
}
