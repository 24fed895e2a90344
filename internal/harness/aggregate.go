package harness

import (
	"sort"

	"repro/internal/analytics"
)

// The campaign aggregate is the PartialResult. The engine folds every
// completed experiment — executed, or replayed from its journal — into its
// shard's partial with add, the one-experiment case of Merge: both apply
// each retention rule through the same helper (insertByID, keepProfile,
// offerSpread, keyedIndex), so "sharded equals unsharded" is one
// implementation rather than two kept in step. Every rule depends only on
// experiment IDs and contents, never on arrival order, so any interleaving
// of workers and any split between replay and live execution yields the
// same bytes. Memory stays bounded by the retention configuration
// (profiles per class, summary cap) rather than by the run count.

// add folds one completed experiment into p. strata and sites are the
// engine's stratification and per-site views, nil when the campaign runs
// without them; they gate the keyed tallies and label a key when it is
// first inserted. Not safe for concurrent use; the campaign engine funnels
// every completion through one goroutine.
func (p *PartialResult) add(r *journalRecord, strata *Strata, sites *siteMap) {
	s := &r.Sum
	p.Tally.Add(s.Outcome)
	for k, v := range r.StructCML {
		p.StructTotals[k] += v
	}
	p.Experiments = insertByID(p.Experiments, *s, p.MaxSummaries, summaryID)
	if strata != nil {
		var i int
		var found bool
		p.Strata, i, found = keyedIndex(p.Strata, s.Stratum, stratumKey)
		if !found {
			p.Strata[i] = StratumTally{Stratum: s.Stratum, Label: StratumLabel(s.Stratum, strata.Phases)}
		}
		p.Strata[i].Tally.Add(s.Outcome)
	}
	if pat := s.Pattern; sites != nil && pat != nil {
		var i int
		var found bool
		p.Sites, i, found = keyedIndex(p.Sites, pat.Site, siteKey)
		st := &p.Sites[i]
		if !found {
			*st = SiteTally{Site: pat.Site, Label: sites.label(pat.Site)}
		}
		st.Tally.Add(s.Outcome)
		if pat.Shape >= 0 && int(pat.Shape) < analytics.NumShapes {
			st.Shapes[pat.Shape]++
		}
		if pat.Cause >= 0 && int(pat.Cause) < analytics.NumCauses {
			st.Causes[pat.Cause]++
		}
	}
	if s.HasFit {
		p.Fits = insertByID(p.Fits, IDFit{ID: s.ID, Fit: s.Fit, Stratum: s.Stratum}, 0, fitID)
	}
	if len(r.Points) >= 3 {
		p.Profiles = keepProfile(p.Profiles, Profile{ID: s.ID, Outcome: s.Outcome, Points: r.Points}, p.KeepProfiles)
	}
	if len(r.Spread) > 0 {
		p.offerSpread(SpreadSeries{ID: s.ID, Points: r.Spread})
	}
}

// The ID and key accessors take pointers: the summaries they read are
// ~250 bytes, too many to copy per comparison.
func summaryID(e *ExperimentSummary) int { return e.ID }
func profileID(e *Profile) int           { return e.ID }
func fitID(f *IDFit) int                 { return f.ID }

// insertByID inserts v into the ID-sorted slice s, then truncates to the
// lowest-ID cap elements (cap <= 0: keep all), the convention
// mergeSortedByID shares: the lowest K of a union is the lowest K of the
// parts' lowest K.
func insertByID[T any](s []T, v T, cap int, id func(*T) int) []T {
	n := len(s)
	s = append(s, v) // v's ID is read in place: &v would escape
	key := id(&s[n])
	i := sort.Search(n, func(i int) bool { return id(&s[i]) >= key })
	if cap > 0 && i >= cap {
		return s[:n]
	}
	copy(s[i+1:], s[i:n])
	s[i] = v
	if cap > 0 && len(s) > cap {
		s = s[:cap]
	}
	return s
}

// keepProfile inserts p into the ID-sorted profile set ps, then drops the
// highest-ID profile of p's outcome class beyond keep (keep <= 0: keep
// all). Every class thus retains its keep lowest-ID qualifying profiles —
// the set the historical "first K in ID order" scan selected — whatever
// order profiles arrive in.
func keepProfile(ps []Profile, p Profile, keep int) []Profile {
	ps = insertByID(ps, p, 0, profileID)
	if keep <= 0 {
		return ps
	}
	n := 0
	for i := range ps {
		if ps[i].Outcome != p.Outcome {
			continue
		}
		if n++; n > keep {
			return append(ps[:i], ps[i+1:]...)
		}
	}
	return ps
}

// offerSpread keeps the widest corrupted-ranks series; ties go to the
// lowest experiment ID, as the historical in-order scan decided.
func (p *PartialResult) offerSpread(s SpreadSeries) {
	n, cur := len(s.Points), len(p.Spread.Points)
	if !p.HasSpread || n > cur || (n == cur && s.ID < p.Spread.ID) {
		p.Spread, p.HasSpread = s, true
	}
}

// keyedIndex returns the index of key in ts, a keyed tally set sorted by
// key (per-stratum, per-site), inserting a zero entry there when ts holds
// none; found reports which, so the caller labels a new entry once.
func keyedIndex[T any](ts []T, key int, keyOf func(*T) int) (out []T, i int, found bool) {
	i = sort.Search(len(ts), func(i int) bool { return keyOf(&ts[i]) >= key })
	if i < len(ts) && keyOf(&ts[i]) == key {
		return ts, i, true
	}
	var zero T
	ts = append(ts, zero)
	copy(ts[i+1:], ts[i:])
	ts[i] = zero
	return ts, i, false
}
