package harness

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Per-site propagation analytics (Sampling.Sites). Each experiment's fault
// plan is attributed to the static fim_inj site of its first fault via the
// golden dyn→static site map (recorded by the pack's capture run, the same
// map stratification reads — see pack.go), and its outcome, CML trajectory
// shape, and cleanse cause are tallied per site. Everything is a pure integer count over
// seed-pure per-experiment records, so per-site tallies merge exactly like
// StratumTally and the ranked table is byte-identical across worker
// counts, shard layouts, snapshot-fork scheduling, and checkpoint resume.

// siteMap resolves planned faults to static injection sites: the per-rank
// dyn→static runs the pack's capture run recorded, plus the transform's
// SiteInfo table, which holds each static site's injection class, and one
// label per static site. All are pure functions of the pack's
// configuration; the pack builds the map once and every shard on it shares
// it read-only.
type siteMap struct {
	runs   core.SiteRuns
	infos  []transform.SiteInfo
	labels []string
}

func newSiteMap(infos []transform.SiteInfo, runs core.SiteRuns) *siteMap {
	labels := make([]string, len(infos))
	for i, in := range infos {
		labels[i] = fmt.Sprintf("%s#%d/%s",
			in.Func, in.Index, stratumClasses[classBucket(in.Class)].label)
	}
	return &siteMap{runs: runs, infos: infos, labels: labels}
}

// staticOf maps the plan's first fault to its static site ordinal.
func (m *siteMap) staticOf(plan inject.Plan) (int, bool) {
	if len(plan.Faults) == 0 {
		return 0, false
	}
	s, ok := m.runs.Static(plan.Faults[0].Rank, plan.Faults[0].Site)
	return int(s), ok
}

// label names a static site for reports and journals.
func (m *siteMap) label(site int) string {
	if site >= 0 && site < len(m.labels) {
		return m.labels[site]
	}
	return "?"
}

// patternFor condenses one experiment into its propagation-pattern record:
// the static site of its first fault, the CML trajectory shape, and the
// cleanse cause. Nil for zero-fault plans (legal in multi-fault mode) —
// there is nothing to attribute. Every input is a seed-pure field of the
// summary or the injected rank's retained CML points, so the record is
// deterministic and journals replay it exactly.
func (m *siteMap) patternFor(plan inject.Plan, sum ExperimentSummary, points []trace.Point) *analytics.Pattern {
	site, ok := m.staticOf(plan)
	if !ok {
		return nil
	}
	final := 0
	if n := len(points); n > 0 {
		final = points[n-1].CML
	}
	return &analytics.Pattern{
		Site:  site,
		Shape: analytics.ClassifyShape(points),
		Cause: analytics.ClassifyCause(sum.Fired, sum.MaxCML > 0, final, sum.Outcome),
	}
}

// SiteTally is the mergeable per-static-site aggregate a PartialResult
// carries when per-site analytics are enabled (Sampling.Sites): outcome
// counts plus propagation-pattern counts. Pure integers, so merging is
// commutative and associative exactly like StratumTally.
type SiteTally struct {
	Site   int                   `json:"site"`
	Label  string                `json:"label"`
	Tally  classify.Tally        `json:"tally"`
	Shapes analytics.ShapeCounts `json:"shapes"`
	Causes analytics.CauseCounts `json:"causes"`
}

func siteKey(st *SiteTally) int { return st.Site }

// mergeSiteTallies unions two per-site tally sets by static site ordinal
// (see mergeKeyed in strata.go).
func mergeSiteTallies(a, b []SiteTally) ([]SiteTally, error) {
	return mergeKeyed(a, b, "site",
		func(st *SiteTally) (int, string) { return st.Site, st.Label },
		func(cur *SiteTally, st SiteTally) {
			cur.Tally.Merge(st.Tally)
			cur.Shapes.Add(st.Shapes)
			cur.Causes.Add(st.Causes)
		})
}

// SiteReport is one row of the final per-site vulnerability ranking,
// ordered most-vulnerable first: descending Wilson lower bound on
// P(WO or Crash | flip at site), ties broken by descending point rate and
// then ascending site ordinal.
type SiteReport struct {
	Site   int                   `json:"site"`
	Label  string                `json:"label"`
	Tally  classify.Tally        `json:"tally"`
	Shapes analytics.ShapeCounts `json:"shapes"`
	Causes analytics.CauseCounts `json:"causes"`
	// Rate is the point estimate of P(WO or Crash | flip at site).
	Rate float64 `json:"rate"`
	// HalfWidth is the 95% Wilson half-width of Rate.
	HalfWidth float64 `json:"halfWidth"`
	// LowerBound is the Wilson lower confidence bound, the ranking key.
	LowerBound float64 `json:"lowerBound"`
}

// buildSiteReports derives the ranked vulnerability table from merged
// per-site tallies. Nil in, nil out — legacy partials without site tallies
// finalize byte-identically to earlier releases.
func buildSiteReports(tallies []SiteTally) []SiteReport {
	if len(tallies) == 0 {
		return nil
	}
	in := make([]analytics.SiteStat, len(tallies))
	byOrd := make(map[int]SiteTally, len(tallies))
	for i, st := range tallies {
		in[i] = analytics.SiteStat{
			Site:  st.Site,
			Label: st.Label,
			Bad:   st.Tally.Counts[classify.WrongOutput] + st.Tally.Counts[classify.Crashed],
			Total: st.Tally.Total,
		}
		byOrd[st.Site] = st
	}
	ranked := analytics.RankSites(in, stats.Z95)
	out := make([]SiteReport, len(ranked))
	for i, r := range ranked {
		st := byOrd[r.Site]
		out[i] = SiteReport{
			Site:       r.Site,
			Label:      r.Label,
			Tally:      st.Tally,
			Shapes:     st.Shapes,
			Causes:     st.Causes,
			Rate:       r.Rate,
			HalfWidth:  r.HalfWidth,
			LowerBound: r.LowerBound,
		}
	}
	return out
}

// ProtectTop selects the static site ordinals to protect: the top pct% of
// totalSites static sites, taken from the ranked report (fewer when fewer
// sites were ever observed). The result is sorted ascending — the shape
// CampaignConfig.Protect requires.
func ProtectTop(sites []SiteReport, pct float64, totalSites int) []int {
	ranked := make([]analytics.RankedSite, len(sites))
	for i, s := range sites {
		ranked[i] = analytics.RankedSite{
			Site: s.Site, Label: s.Label,
			Rate: s.Rate, HalfWidth: s.HalfWidth, LowerBound: s.LowerBound,
		}
	}
	return analytics.TopPercent(ranked, pct, totalSites)
}
