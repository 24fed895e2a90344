package harness

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/trace"
)

// foldCase is one synthetic campaign slice: experiment records, the
// retention caps, and the stratification and site views that gate the
// keyed tallies.
type foldCase struct {
	recs         []journalRecord
	keep, maxSum int
	strata       *Strata
	sites        *siteMap
}

// genFoldCase draws a campaign of up to 64 experiments over sparse,
// shuffled IDs: random outcomes, strata and sites on or off, 0–5 profile
// points, spread lengths 0–3 (so equal-width spreads tie), per-structure
// totals, and random retention caps (0 keeps all).
func genFoldCase(rng *rand.Rand, n int) foldCase {
	c := foldCase{keep: rng.Intn(4), maxSum: rng.Intn(n + 3)}
	if rng.Intn(2) == 0 {
		c.strata = &Strata{Phases: 1 + rng.Intn(3)}
	}
	if rng.Intn(2) == 0 {
		c.sites = &siteMap{labels: []string{"f#0/arith", "f#1/mem", "g#0/cmp"}}
	}
	ids := rng.Perm(4 * n)[:n]
	structs := []string{"a", "b", "c"}
	for _, id := range ids {
		s := ExperimentSummary{
			ID:      id,
			Outcome: classify.Outcome(rng.Intn(classify.NumOutcomes)),
			MaxCML:  rng.Intn(100),
			HasFit:  rng.Intn(2) == 0,
		}
		if s.HasFit {
			s.Fit.A, s.Fit.B = rng.Float64(), rng.Float64()
		}
		if c.strata != nil {
			s.Stratum = rng.Intn(c.strata.NumStrata())
		}
		if rng.Intn(4) > 0 {
			// Site 3 has no label; shapes and causes reach one past each
			// end of their ranges.
			s.Pattern = &analytics.Pattern{
				Site:  rng.Intn(4),
				Shape: analytics.Shape(rng.Intn(analytics.NumShapes+2) - 1),
				Cause: analytics.Cause(rng.Intn(analytics.NumCauses+2) - 1),
			}
		}
		r := journalRecord{Kind: "exp", Sum: s}
		for i, np := 0, rng.Intn(6); i < np; i++ {
			r.Points = append(r.Points, trace.Point{Cycles: int64(i), CML: rng.Intn(50)})
		}
		for i, ns := 0, rng.Intn(4); i < ns; i++ {
			r.Spread = append(r.Spread, trace.SpreadPoint{Time: int64(i), Ranks: 1 + i})
		}
		if rng.Intn(2) == 0 {
			r.StructCML = map[string]int{}
			for _, k := range structs[:rng.Intn(len(structs)+1)] {
				r.StructCML[k] = rng.Intn(9)
			}
		}
		c.recs = append(c.recs, r)
	}
	return c
}

// empty returns the experiment-less partial a shard of this case starts
// from, as RunShardContext initialises it.
func (c foldCase) empty() *PartialResult {
	return &PartialResult{
		Fingerprint:  "fold",
		Runs:         4 * len(c.recs),
		KeepProfiles: c.keep,
		MaxSummaries: c.maxSum,
		StructTotals: map[string]int{},
		Fits:         []IDFit{},
	}
}

// fold adds recs to a fresh partial in the given order, checking the
// retained-set invariants after every add, and sets its ranges.
func (c foldCase) fold(t *testing.T, recs []journalRecord) *PartialResult {
	t.Helper()
	p := c.empty()
	ids := make([]int, 0, len(recs))
	done := make(map[int]bool, len(recs))
	for i := range recs {
		p.add(&recs[i], c.strata, c.sites)
		checkRetained(t, p)
		ids = append(ids, recs[i].Sum.ID)
		done[recs[i].Sum.ID] = true
	}
	sort.Ints(ids)
	p.Ranges = completedRanges(ids, done)
	return p
}

// checkRetained asserts that every retained slice is strictly ID- or
// key-sorted and within its cap.
func checkRetained(t *testing.T, p *PartialResult) {
	t.Helper()
	sorted := func(what string, n int, key func(int) int) {
		for i := 1; i < n; i++ {
			if key(i-1) >= key(i) {
				t.Fatalf("%s not strictly sorted at %d: %d then %d", what, i, key(i-1), key(i))
			}
		}
	}
	sorted("experiments", len(p.Experiments), func(i int) int { return p.Experiments[i].ID })
	sorted("profiles", len(p.Profiles), func(i int) int { return p.Profiles[i].ID })
	sorted("fits", len(p.Fits), func(i int) int { return p.Fits[i].ID })
	sorted("strata", len(p.Strata), func(i int) int { return p.Strata[i].Stratum })
	sorted("sites", len(p.Sites), func(i int) int { return p.Sites[i].Site })
	if p.MaxSummaries > 0 && len(p.Experiments) > p.MaxSummaries {
		t.Fatalf("%d summaries retained, cap %d", len(p.Experiments), p.MaxSummaries)
	}
	if p.KeepProfiles > 0 {
		var per [classify.NumOutcomes]int
		for _, pr := range p.Profiles {
			if per[pr.Outcome]++; per[pr.Outcome] > p.KeepProfiles {
				t.Fatalf("outcome %v retains %d profiles, cap %d", pr.Outcome, per[pr.Outcome], p.KeepProfiles)
			}
		}
	}
}

// scanOracle aggregates the case the way the historical sequential
// campaign did: one pass in ID order, first K summaries, first K
// qualifying profiles per class, the first strictly widest spread.
func (c foldCase) scanOracle() *PartialResult {
	recs := append([]journalRecord(nil), c.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Sum.ID < recs[j].Sum.ID })
	p := c.empty()
	var per [classify.NumOutcomes]int
	strata := map[int]classify.Tally{}
	sites := map[int]*SiteTally{}
	ids := make([]int, 0, len(recs))
	done := map[int]bool{}
	for _, r := range recs {
		s := r.Sum
		ids = append(ids, s.ID)
		done[s.ID] = true
		p.Tally.Add(s.Outcome)
		for k, v := range r.StructCML {
			p.StructTotals[k] += v
		}
		if c.maxSum == 0 || len(p.Experiments) < c.maxSum {
			p.Experiments = append(p.Experiments, s)
		}
		if s.HasFit {
			p.Fits = append(p.Fits, IDFit{ID: s.ID, Fit: s.Fit, Stratum: s.Stratum})
		}
		if len(r.Points) >= 3 && (c.keep == 0 || per[s.Outcome] < c.keep) {
			per[s.Outcome]++
			p.Profiles = append(p.Profiles, Profile{ID: s.ID, Outcome: s.Outcome, Points: r.Points})
		}
		if len(r.Spread) > 0 && (!p.HasSpread || len(r.Spread) > len(p.Spread.Points)) {
			p.Spread, p.HasSpread = SpreadSeries{ID: s.ID, Points: r.Spread}, true
		}
		if c.strata != nil {
			t := strata[s.Stratum]
			t.Add(s.Outcome)
			strata[s.Stratum] = t
		}
		if pat := s.Pattern; c.sites != nil && pat != nil {
			st := sites[pat.Site]
			if st == nil {
				st = &SiteTally{Site: pat.Site, Label: c.sites.label(pat.Site)}
				sites[pat.Site] = st
			}
			st.Tally.Add(s.Outcome)
			if pat.Shape >= 0 && int(pat.Shape) < analytics.NumShapes {
				st.Shapes[pat.Shape]++
			}
			if pat.Cause >= 0 && int(pat.Cause) < analytics.NumCauses {
				st.Causes[pat.Cause]++
			}
		}
	}
	for k, t := range strata {
		p.Strata = append(p.Strata, StratumTally{Stratum: k, Label: StratumLabel(k, c.strata.Phases), Tally: t})
	}
	sort.Slice(p.Strata, func(i, j int) bool { return p.Strata[i].Stratum < p.Strata[j].Stratum })
	for _, st := range sites {
		p.Sites = append(p.Sites, *st)
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].Site < p.Sites[j].Site })
	p.Ranges = completedRanges(ids, done)
	return p
}

func shuffled(rng *rand.Rand, recs []journalRecord) []journalRecord {
	out := append([]journalRecord(nil), recs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// FuzzPartialFold is the one-rule gate. Folding a campaign's experiments
// into one partial in a random order, and folding k disjoint subsets each
// in its own random order then merging the partials in a random order,
// must both yield the bytes of a sequential scan in ID order — so add and
// Merge apply the same retention rules, and those rules are the
// lowest-ID ones the historical scan applied.
func FuzzPartialFold(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 35, 2015} {
		f.Add(seed, uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := genFoldCase(rng, 1+int(size)%64)
		want := mustJSON(t, c.scanOracle())

		if got := mustJSON(t, c.fold(t, shuffled(rng, c.recs))); !bytes.Equal(got, want) {
			t.Fatalf("one partial, shuffled fold:\n got %s\nwant %s", got, want)
		}

		k := 1 + rng.Intn(4)
		sets := make([][]journalRecord, k)
		for _, r := range c.recs {
			i := rng.Intn(k)
			sets[i] = append(sets[i], r)
		}
		parts := make([]*PartialResult, k)
		for i, set := range sets {
			parts[i] = c.fold(t, shuffled(rng, set))
		}
		order := rng.Perm(k)
		acc := parts[order[0]].Clone()
		for _, i := range order[1:] {
			before := mustJSON(t, parts[i])
			if err := acc.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
			checkRetained(t, acc)
			if after := mustJSON(t, parts[i]); !bytes.Equal(before, after) {
				t.Fatalf("Merge modified its argument")
			}
		}
		if len(acc.Fits) == 0 {
			// Clone copies an empty Fits to nil, as merged partials always
			// have; only the fold's own partial starts from [].
			acc.Fits = []IDFit{}
		}
		if got := mustJSON(t, acc); !bytes.Equal(got, want) {
			t.Fatalf("%d partials merged in order %v:\n got %s\nwant %s", k, order, got, want)
		}
	})
}

// TestEmptyShardPartialBytes pins what an experiment-less shard encodes:
// the structure totals and fits are initialised ({} and []) while the
// summaries and profiles stay null, exactly as before the partial became
// the fold target.
func TestEmptyShardPartialBytes(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 3}}
	p, err := RunShard(cfg, ShardSpec{Shards: 2, From: 6, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	js := string(mustJSON(t, p))
	for _, want := range []string{`"ranges":null`, `"structTotals":{}`, `"fits":[]`, `"experiments":null`, `"profiles":null`, `"hasSpread":false`} {
		if !strings.Contains(js, want) {
			t.Errorf("empty shard partial lacks %s:\n%s", want, js)
		}
	}
	if strings.Contains(js, `"strata"`) || strings.Contains(js, `"sites"`) {
		t.Errorf("empty shard partial carries keyed tallies:\n%s", js)
	}
}
