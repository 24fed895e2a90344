package harness

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/stats"
)

// Stratification. The adaptive planner partitions a campaign's experiment
// space by where the (first) fault lands: the instruction class consuming
// the corrupted operand (arith / mem / cmp / ctl: the SiteInfo class of the
// static site that the dyn→static site map, recorded by the pack's capture
// run, resolves it to — see pack.go) crossed with the golden-execution
// phase of the dynamic site (which fraction of the rank's fault-free site
// space precedes it). Both axes are pure functions of the seed and the
// golden execution, so an experiment's stratum is identical no matter
// where, when, or by whom it is computed — the property that lets shards
// tally strata independently and a coordinator steer budget from merged
// tallies alone.

// defaultStrataPhases is the phase count used when TargetCI is set but
// Strata is not.
const defaultStrataPhases = 4

// stratumClasses are the instruction-class buckets, in stratum-index
// order. Sites whose consumer is none of the injectable classes (possible
// at function tails) land in "other".
var stratumClasses = [...]struct {
	class ir.Class
	label string
}{
	{ir.ClassArith, "arith"},
	{ir.ClassMem, "mem"},
	{ir.ClassCmp, "cmp"},
	{ir.ClassControl, "ctl"},
	{ir.ClassNone, "other"},
}

// numStratumClasses is the instruction-class axis length.
const numStratumClasses = len(stratumClasses)

func classBucket(c ir.Class) int {
	for i, b := range stratumClasses {
		if b.class == c {
			return i
		}
	}
	return numStratumClasses - 1 // "other"
}

// Strata maps fault plans to stratum indices for one campaign
// configuration: a view of the pack's site map at one phase count. Index 0
// is the catch-all for zero-fault plans (legal in multi-fault mode);
// indices 1..NumStrata()-1 are class × phase cells.
type Strata struct {
	// Phases is the number of golden-execution phases per class.
	Phases int
	// sites are the per-rank golden dynamic site counts.
	sites []uint64
	// m resolves a fault's site to its static site, and so to its class.
	m *siteMap
}

// NumStrata is the stratum index space size: the zero-fault catch-all plus
// one cell per class × phase.
func (s *Strata) NumStrata() int { return 1 + numStratumClasses*s.Phases }

// StratumOf assigns a fault plan to its stratum: the class × phase cell of
// the plan's first fault, or 0 for an empty plan. Out-of-profile faults
// (impossible for plans drawn against this golden execution) land in 0.
func (s *Strata) StratumOf(plan inject.Plan) int {
	if len(plan.Faults) == 0 {
		return 0
	}
	f := plan.Faults[0]
	static, ok := s.m.runs.Static(f.Rank, f.Site)
	if !ok {
		return 0
	}
	class := s.m.infos[static].Class
	phase := int(f.Site * uint64(s.Phases) / s.sites[f.Rank])
	if phase >= s.Phases {
		phase = s.Phases - 1
	}
	return 1 + classBucket(class)*s.Phases + phase
}

// StratumLabel names a stratum index for reports, e.g.
// "arith/p2" (arithmetic consumers, third execution phase) or "none".
func StratumLabel(stratum, phases int) string {
	if stratum <= 0 || phases <= 0 {
		return "none"
	}
	b := (stratum - 1) / phases
	p := (stratum - 1) % phases
	if b >= numStratumClasses {
		return "none"
	}
	return fmt.Sprintf("%s/p%d", stratumClasses[b].label, p)
}

// StratumTally is the mergeable per-stratum aggregate a PartialResult
// carries when the campaign is stratified: pure integer outcome counts, so
// merging is commutative and associative like the campaign tally itself.
type StratumTally struct {
	Stratum int            `json:"stratum"`
	Label   string         `json:"label"`
	Tally   classify.Tally `json:"tally"`
}

// maxHalfWidth is the planner's stopping metric for one stratum: the
// widest 95% Wilson half-width over its per-outcome rates and its
// aggregate vulnerability rate (WO+PEX+C). When it reaches the target,
// every reported rate of the stratum is pinned within ±target.
func maxHalfWidth(t classify.Tally) float64 {
	if t.Total == 0 {
		return 1
	}
	bad := t.Counts[classify.WrongOutput] +
		t.Counts[classify.ProlongedExecution] +
		t.Counts[classify.Crashed]
	w := stats.WilsonHalfWidth(bad, t.Total, stats.Z95)
	for o := 0; o < classify.NumOutcomes; o++ {
		if h := stats.WilsonHalfWidth(t.Counts[o], t.Total, stats.Z95); h > w {
			w = h
		}
	}
	return w
}

// mergeKeyed unions two key-sorted tally sets (per-stratum, per-site) by
// key, folding entries both sides hold with fold, through the same
// keyedIndex lookup the one-experiment fold (PartialResult.add) uses. Labels
// must agree — a mismatch means the partials were built under different
// configurations and must not combine. a is copied before folding, so
// neither argument is modified; an empty b returns a unchanged, so
// partials that carry no such tallies stay nil.
func mergeKeyed[T any](a, b []T, what string, keyOf func(*T) (key int, label string),
	fold func(cur *T, other T)) ([]T, error) {

	if len(b) == 0 {
		return a, nil
	}
	key := func(t *T) int { k, _ := keyOf(t); return k }
	out := append(make([]T, 0, len(a)+len(b)), a...)
	for _, t := range b {
		k, label := keyOf(&t)
		var i int
		var found bool
		out, i, found = keyedIndex(out, k, key)
		if !found {
			out[i] = t
			continue
		}
		if _, curLabel := keyOf(&out[i]); curLabel != label {
			return nil, fmt.Errorf("%w: %s %d labeled %q vs %q",
				ErrMergeMismatch, what, k, curLabel, label)
		}
		fold(&out[i], t)
	}
	return out, nil
}

func stratumKey(st *StratumTally) int { return st.Stratum }

// mergeStratumTallies unions two per-stratum tally sets by stratum index.
func mergeStratumTallies(a, b []StratumTally) ([]StratumTally, error) {
	return mergeKeyed(a, b, "stratum",
		func(st *StratumTally) (int, string) { return st.Stratum, st.Label },
		func(cur *StratumTally, st StratumTally) { cur.Tally.Merge(st.Tally) })
}

// StratumReport is one row of the final per-stratum vulnerability table.
type StratumReport struct {
	Stratum int            `json:"stratum"`
	Label   string         `json:"label"`
	Tally   classify.Tally `json:"tally"`
	// Rate is the stratum's vulnerability: the fraction of its experiments
	// whose fault was not masked (everything but Vanished and ONA).
	Rate float64 `json:"rate"`
	// HalfWidth is the 95% Wilson half-width of Rate.
	HalfWidth float64 `json:"halfWidth"`
	// MaxHalfWidth is the planner's stopping metric: the widest Wilson
	// half-width over all five outcome rates.
	MaxHalfWidth float64 `json:"maxHalfWidth"`
	// FPS aggregates the stratum's per-run propagation-speed fits (the
	// growth rate A of Eq. 1) as mergeable moments.
	FPS stats.Moments `json:"fps"`
}

// buildStrataReports derives the final vulnerability table from merged
// per-stratum tallies and the merged, ID-sorted fit inputs. Folding the
// fits in ID order keeps the floating-point moments byte-identical across
// worker counts, shard layouts, and merge orders.
func buildStrataReports(tallies []StratumTally, fits []IDFit) []StratumReport {
	if len(tallies) == 0 {
		return nil
	}
	moments := make(map[int]*stats.Moments, len(tallies))
	for _, f := range fits {
		m, ok := moments[f.Stratum]
		if !ok {
			m = &stats.Moments{}
			moments[f.Stratum] = m
		}
		m.Add(f.Fit.A)
	}
	out := make([]StratumReport, 0, len(tallies))
	for _, st := range tallies {
		bad := st.Tally.Counts[classify.WrongOutput] +
			st.Tally.Counts[classify.ProlongedExecution] +
			st.Tally.Counts[classify.Crashed]
		rep := StratumReport{
			Stratum:      st.Stratum,
			Label:        st.Label,
			Tally:        st.Tally,
			HalfWidth:    stats.WilsonHalfWidth(bad, st.Tally.Total, stats.Z95),
			MaxHalfWidth: maxHalfWidth(st.Tally),
		}
		if st.Tally.Total > 0 {
			rep.Rate = float64(bad) / float64(st.Tally.Total)
		}
		if m, ok := moments[st.Stratum]; ok {
			rep.FPS = *m
		}
		out = append(out, rep)
	}
	return out
}
