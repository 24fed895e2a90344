package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/vm"
)

// This file regenerates the paper's figures and tables as text. Each
// Format* function corresponds to one exhibit of the evaluation (see
// DESIGN.md's experiment index).

// fig5Bins is Fig. 5's histogram resolution: the χ² test's bins, merged
// into 20 for display.
const fig5Bins = 50

// FormatFig5 renders the fault-injection coverage histogram (paper Fig. 5):
// injection times of all fired faults, normalized by the injected rank's
// fault-free cycle count, binned uniformly into fig5Bins, with a χ²
// uniformity verdict.
func FormatFig5(res *CampaignResult) string {
	h := stats.NewHistogram(0, 1, fig5Bins)
	for _, e := range res.Experiments {
		// Unplanned runs (multi-fault mode can draw zero faults) have no
		// injection; without the Planned gate they would be misread as
		// rank-0 injections at cycle 0.
		if !e.Planned || !e.Fired || e.InjRank >= len(res.GoldenSites) {
			continue
		}
		g := res.Golden.Cycles
		if g == 0 {
			continue
		}
		h.Add(float64(e.InjCycle) / float64(g))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 — injection coverage over execution time (%s, %d injections, %d bins)\n",
		res.App, h.N, fig5Bins)
	chi2, dof := h.ChiSquareUniform()
	fmt.Fprintf(&sb, "chi2 = %.1f (dof %d), uniform at 1%% level: %v, expected/bin = %.1f\n",
		chi2, dof, h.ChiSquareUniformOK(), h.ExpectedUniform())
	// Render a compact bar chart (merge into 20 display bins).
	display := 20
	merged := make([]int, display)
	for i, c := range h.Counts {
		merged[i*display/len(h.Counts)] += c
	}
	maxC := 1
	for _, c := range merged {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range merged {
		fmt.Fprintf(&sb, "%4.2f |%-40s %d\n", float64(i)/float64(display),
			strings.Repeat("#", c*40/maxC), c)
	}
	return sb.String()
}

// FormatFig6 renders the outcome breakdown (paper Fig. 6): percentage of
// runs per class, with CO = V + ONA as the black-box view reports it.
func FormatFig6(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — outcome of fault injection (single fault, random rank)\n")
	fmt.Fprintf(&sb, "%-10s %6s %6s %6s %6s   (runs)\n", "App", "CO%", "WO%", "PEX%", "C%")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-10s %6.1f %6.1f %6.1f %6.1f   (%d)\n",
			r.App,
			r.Tally.PercentCO(),
			r.Tally.Percent(classify.WrongOutput),
			r.Tally.Percent(classify.ProlongedExecution),
			r.Tally.Percent(classify.Crashed),
			r.Tally.Total)
	}
	return sb.String()
}

// FormatFig7 renders representative propagation profiles (paper Fig. 7a-e):
// the injected rank's CML time series for up to KeepProfiles runs per
// outcome class.
func FormatFig7(res *CampaignResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7 — fault propagation profiles (%s)\n", res.App)
	for _, p := range res.Profiles {
		fmt.Fprintf(&sb, "run %d [%s]: ", p.ID, p.Outcome)
		pts := downsample(p.Points, 16)
		parts := make([]string, len(pts))
		for i, pt := range pts {
			parts[i] = fmt.Sprintf("%.2fms:%d", model.CyclesToSeconds(pt.Cycles)*1e3, pt.CML)
		}
		sb.WriteString(strings.Join(parts, " "))
		sb.WriteByte('\n')
	}
	if len(res.Profiles) == 0 {
		sb.WriteString("(no propagating runs recorded)\n")
	}
	return sb.String()
}

func downsample(pts []trace.Point, n int) []trace.Point {
	if len(pts) <= n || n < 2 {
		return pts
	}
	out := make([]trace.Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return out
}

// FormatFig7f renders the maximum percentage of contaminated memory state
// per application (paper Fig. 7f).
func FormatFig7f(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 7f — max percentage of contaminated memory state\n")
	fmt.Fprintf(&sb, "%-10s %10s %12s %12s\n", "App", "max %", "median %", "mem words")
	for _, r := range results {
		var pcts []float64
		for _, e := range r.Experiments {
			pcts = append(pcts, e.ContamPct)
		}
		maxP, medP := 0.0, 0.0
		if len(pcts) > 0 {
			maxP = stats.Max(pcts)
			medP = stats.Percentile(pcts, 50)
		}
		fmt.Fprintf(&sb, "%-10s %10.2f %12.2f %12d\n", r.App, maxP, medP, r.AllocatedWords)
	}
	return sb.String()
}

// FormatFig8 renders corrupted-MPI-rank spread over global time (paper
// Fig. 8) for the campaign's widest-spreading run.
func FormatFig8(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 8 — corrupted MPI ranks over time (widest-spreading run per app)\n")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-10s run %d: ", r.App, r.BestSpread.ID)
		if len(r.BestSpread.Points) == 0 {
			sb.WriteString("(no cross-rank contamination)\n")
			continue
		}
		parts := make([]string, 0, len(r.BestSpread.Points))
		for _, p := range r.BestSpread.Points {
			parts = append(parts, fmt.Sprintf("%.2fms:%d", model.CyclesToSeconds(p.Time)*1e3, p.Ranks))
		}
		if len(parts) > 16 {
			parts = parts[:16]
		}
		sb.WriteString(strings.Join(parts, " "))
		fmt.Fprintf(&sb, "  (final: %d/%d ranks)\n",
			r.BestSpread.Points[len(r.BestSpread.Points)-1].Ranks, r.Params.Ranks)
	}
	return sb.String()
}

// FormatTable2 renders the fault propagation speed factors (paper Table 2).
func FormatTable2(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("Table 2 — fault propagation speed factors\n")
	fmt.Fprintf(&sb, "%-10s %14s %14s %8s %10s\n", "App", "FPS (CML/s)", "StdDev", "fits", "valid.err")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-10s %14.4g %14.4g %8d %10.4f\n",
			r.App, r.Model.FPS, r.Model.StdDev, len(r.Model.Fits), r.Model.ValidationErr)
	}
	return sb.String()
}

// FormatCOBreakdown renders the §4.3 analysis: the fraction of
// correct-output runs whose memory state was nevertheless contaminated
// (ONA), which a black-box analysis cannot see.
func FormatCOBreakdown(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("CO breakdown — Vanished vs Output-Not-Affected (paper §4.3)\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %22s\n", "App", "CO runs", "V", "ONA", "%CO with contaminated")
	for _, r := range results {
		v := r.Tally.Counts[classify.Vanished]
		ona := r.Tally.Counts[classify.OutputNotAffected]
		co := v + ona
		pct := 0.0
		if co > 0 {
			pct = 100 * float64(ona) / float64(co)
		}
		fmt.Fprintf(&sb, "%-10s %8d %8d %8d %21.1f%%\n", r.App, co, v, ona, pct)
	}
	return sb.String()
}

// Table1Row is one row of the paper's Table 1 reproduction.
type Table1Row struct {
	N            int
	Op           string
	Result       int64
	FaultyResult int64
	Contaminates bool
}

// Table1 reproduces the paper's Table 1 by actually executing each
// operation under the FPM with a bit-1 flip of a (a=19 -> a'=17).
func Table1() ([]Table1Row, error) {
	type tcase struct {
		name string
		emit func(f *ir.FuncBuilder, a ir.Reg) ir.Reg
	}
	cases := []tcase{
		{"b = a + 5", func(f *ir.FuncBuilder, a ir.Reg) ir.Reg { return f.Add(ir.R(a), ir.ImmI(5)) }},
		{"b = 13", func(f *ir.FuncBuilder, a ir.Reg) ir.Reg {
			f.Add(ir.R(a), ir.ImmI(5)) // the corrupted use, result discarded
			return f.CI(13)
		}},
		{"b = a >> 1", func(f *ir.FuncBuilder, a ir.Reg) ir.Reg { return f.AShr(ir.R(a), ir.ImmI(1)) }},
		{"b = a >> 2", func(f *ir.FuncBuilder, a ir.Reg) ir.Reg { return f.AShr(ir.R(a), ir.ImmI(2)) }},
	}
	var rows []Table1Row
	for i, tc := range cases {
		b := ir.NewBuilder()
		aAddr := b.Global("a", 1)
		bAddr := b.Global("b", 1)
		b.GlobalInit("a", []uint64{19})
		b.GlobalInit("b", []uint64{5})
		f := b.Func("main", 0, 0)
		aReg := f.Load(ir.ImmI(aAddr))
		res := tc.emit(f, aReg)
		f.Store(ir.R(res), ir.ImmI(bAddr))
		f.Ret()
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		inst, err := transform.Instrument(prog, transform.DefaultOptions())
		if err != nil {
			return nil, err
		}
		inj := inject.NewRankInjector(inject.Plan{Faults: []inject.Fault{{Site: 0, Bit: 1}}}, 0)
		v := vm.New(inst, vm.Config{Injector: inj})
		if err := v.Run(); err != nil {
			return nil, err
		}
		faulty, _ := v.Mem().Read(int64(bAddr))
		pristine := v.Table().PristineOr(int64(bAddr), faulty)
		_, cont := v.Table().Pristine(int64(bAddr))
		rows = append(rows, Table1Row{
			N: i + 1, Op: tc.name,
			Result:       int64(pristine),
			FaultyResult: int64(faulty),
			Contaminates: cont,
		})
	}
	return rows, nil
}

// FormatTable1 renders the Table 1 reproduction.
func FormatTable1() (string, error) {
	rows, err := Table1()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Table 1 — operand-dependent propagation (a=19, bit-1 flip: a'=17)\n")
	fmt.Fprintf(&sb, "%-3s %-12s %10s %14s %8s\n", "N", "Op", "Result", "Faulty Result", "Cont.?")
	for _, r := range rows {
		cont := "No"
		if r.Contaminates {
			cont = "Yes"
		}
		fmt.Fprintf(&sb, "%-3d %-12s %10d %14d %8s\n", r.N, r.Op, r.Result, r.FaultyResult, cont)
	}
	return sb.String(), nil
}

// FormatStructVulnerability renders the DVF-style per-data-structure
// contamination breakdown (an extension in the spirit of the paper's §6
// comparison with the data vulnerability factor): which structures
// accumulate the campaign's corrupted locations.
func FormatStructVulnerability(results []*CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("Structure vulnerability — end-of-run contaminated locations by data structure\n")
	for _, r := range results {
		type kv struct {
			name string
			n    int
		}
		var rows []kv
		total := 0
		for k, v := range r.StructTotals {
			rows = append(rows, kv{k, v})
			total += v
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].name < rows[j].name
		})
		fmt.Fprintf(&sb, "%s (total %d):", r.App, total)
		if total == 0 {
			sb.WriteString(" (none)\n")
			continue
		}
		max := 6
		for i, row := range rows {
			if i == max {
				fmt.Fprintf(&sb, " …(+%d more)", len(rows)-max)
				break
			}
			fmt.Fprintf(&sb, "  %s=%d (%.0f%%)", row.name, row.n, 100*float64(row.n)/float64(total))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatStrata renders a stratified campaign's per-stratum vulnerability
// table: one row per instruction-class × execution-phase stratum with its
// outcome tally, vulnerability rate ± the 95% Wilson half-width, and the
// stratum's mean propagation speed. Empty for non-stratified campaigns,
// so legacy renderings are unchanged.
func FormatStrata(res *CampaignResult) string {
	if len(res.Strata) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-stratum vulnerability — %s (class × phase, 95%% Wilson CI)\n", res.App)
	sb.WriteString("stratum     runs  V/ONA/WO/PEX/C        vuln rate        FPS mean\n")
	for _, s := range res.Strata {
		c := s.Tally.Counts
		fmt.Fprintf(&sb, "%-10s %5d  %4d/%4d/%3d/%3d/%3d  %.3f ±%.3f", s.Label, s.Tally.Total,
			c[classify.Vanished], c[classify.OutputNotAffected], c[classify.WrongOutput],
			c[classify.ProlongedExecution], c[classify.Crashed], s.Rate, s.HalfWidth)
		if s.FPS.N > 0 {
			fmt.Fprintf(&sb, "  %.4g (n=%d)", s.FPS.Mean, s.FPS.N)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderStudy renders the study of one or more campaigns — every figure
// and table of the evaluation that its results hold, Fig. 5 (of the first
// campaign) through the per-site rankings, and the FPS ordering — as one
// deterministic text document, each exhibit followed by a blank line. It
// is the one composition of the exhibits, and the byte-identity surface
// of the determinism claims: two results are "the same study" exactly when
// their RenderStudy outputs (and JSON encodings) are byte-equal, which is
// how sharded runs, snapshot-mode runs, and archive cache hits are all
// proven equivalent to a plain run.
func RenderStudy(results ...*CampaignResult) string {
	if len(results) == 0 {
		return ""
	}
	exhibits := []string{FormatFig5(results[0]), FormatFig6(results)}
	for _, r := range results {
		exhibits = append(exhibits, FormatFig7(r))
	}
	exhibits = append(exhibits, FormatFig7f(results), FormatFig8(results), FormatTable2(results),
		FormatCOBreakdown(results), FormatStructVulnerability(results))
	// The strata and per-site tables are empty for campaigns without
	// strata or per-site analytics — archive cache-hit results whose
	// PartialResult predates the fields among them — and are left out.
	for _, r := range results {
		exhibits = append(exhibits, FormatStrata(r))
	}
	for _, r := range results {
		exhibits = append(exhibits, FormatSites(r))
	}
	exhibits = append(exhibits, fmt.Sprintf("FPS ordering (fastest propagation first): %s\n",
		strings.Join(SortedFPS(results), " > ")))
	var sb strings.Builder
	for _, e := range exhibits {
		if e != "" {
			sb.WriteString(e)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// formatSitesRows caps the rendered ranking; the full table is in the
// JSON result and the /v1/archive sites view.
const formatSitesRows = 15

// FormatSites renders the per-site vulnerability ranking: one row per
// observed static injection site, most vulnerable first (descending Wilson
// lower bound on P(WO or Crash | flip at site)), with the FlipTracker-style
// propagation-pattern tallies (trajectory shapes none/spike/plateau/growth
// and cleanse causes nofire/truncated/overwritten/dead/propagated). Empty
// for campaigns without per-site analytics — the PR 9 "empty for legacy
// results" rule — so archive cache hits predating the feature render
// byte-identically to their original output.
func FormatSites(res *CampaignResult) string {
	if len(res.Sites) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-site vulnerability — %s (ranked by Wilson lower bound on P(WO|C), 95%% CI)\n", res.App)
	sb.WriteString("site  label                runs  V/ONA/WO/PEX/C        P(WO|C)         shapes n/s/p/g   causes nf/tr/ow/de/pr\n")
	rows := len(res.Sites)
	if rows > formatSitesRows {
		rows = formatSitesRows
	}
	for _, s := range res.Sites[:rows] {
		c := s.Tally.Counts
		fmt.Fprintf(&sb, "%4d  %-20s %4d  %4d/%4d/%3d/%3d/%3d  %.3f ±%.3f     %3d/%3d/%3d/%3d  %3d/%3d/%3d/%3d/%3d\n",
			s.Site, s.Label, s.Tally.Total,
			c[classify.Vanished], c[classify.OutputNotAffected], c[classify.WrongOutput],
			c[classify.ProlongedExecution], c[classify.Crashed],
			s.Rate, s.HalfWidth,
			s.Shapes[analytics.ShapeNone], s.Shapes[analytics.ShapeSpike],
			s.Shapes[analytics.ShapePlateau], s.Shapes[analytics.ShapeGrowth],
			s.Causes[analytics.CauseNoFire], s.Causes[analytics.CauseTruncated],
			s.Causes[analytics.CauseOverwritten], s.Causes[analytics.CauseDeadOnExit],
			s.Causes[analytics.CausePropagated])
	}
	if n := len(res.Sites) - rows; n > 0 {
		fmt.Fprintf(&sb, "(+%d more sites)\n", n)
	}
	return sb.String()
}

// FormatProtection renders the selective-protection evaluation for one
// app: the WO+Crash rate (with 95% Wilson half-width) and golden cycle
// count of a baseline campaign against those of the same campaign with
// the top-ranked sites protected, plus the coverage and instruction
// overhead the protection buys. Protection never changes the experiment
// plans — both campaigns flip the same bits at the same dynamic sites —
// so the rate delta is attributable to the duplicated operands alone.
func FormatProtection(pct float64, protected, totalSites int, base, prot *CampaignResult) string {
	var sb strings.Builder
	coverage := 0.0
	if totalSites > 0 {
		coverage = float64(protected) / float64(totalSites) * 100
	}
	fmt.Fprintf(&sb, "Selective protection — %s (top %g%% of %d sites: %d protected, %.1f%% coverage)\n",
		base.App, pct, totalSites, protected, coverage)
	sb.WriteString("           runs   WO+C rate        golden cycles   overhead\n")
	row := func(name string, res *CampaignResult, overhead string) {
		bad := res.Tally.Counts[classify.WrongOutput] + res.Tally.Counts[classify.Crashed]
		rate := 0.0
		if res.Tally.Total > 0 {
			rate = float64(bad) / float64(res.Tally.Total)
		}
		hw := stats.WilsonHalfWidth(bad, res.Tally.Total, stats.Z95)
		fmt.Fprintf(&sb, "%-10s %4d   %.4f ±%.4f   %13d   %s\n",
			name, res.Tally.Total, rate, hw, res.Golden.Cycles, overhead)
	}
	row("baseline", base, "—")
	overhead := "—"
	if base.Golden.Cycles > 0 {
		delta := int64(prot.Golden.Cycles) - int64(base.Golden.Cycles)
		overhead = fmt.Sprintf("%+.2f%%", float64(delta)/float64(base.Golden.Cycles)*100)
	}
	row("protected", prot, overhead)
	return sb.String()
}

// SortedFPS returns app names ordered by descending FPS, for shape
// comparisons against the paper's Table 2 ordering.
func SortedFPS(results []*CampaignResult) []string {
	rs := append([]*CampaignResult(nil), results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Model.FPS > rs[j].Model.FPS })
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.App
	}
	return names
}
