package harness

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/model"
)

// Sharded campaigns. Experiment i draws from the position-addressable
// stream xrand.At(Seed, i), so any ID range [From, To) of a campaign is
// independently computable: a shard needs no coordination with its
// siblings while it runs. PlanShards carves [0, Runs) into contiguous,
// fingerprint-guarded shard specs; RunShardContext executes one of them
// into a PartialResult; Merge combines partials deterministically and
// order-independently; Finalize recomputes the propagation model from the
// merged fit inputs, so a merged result is byte-identical to the
// equivalent single-process run.

// ShardSpec identifies one contiguous slice of a campaign's experiment ID
// space. Specs are self-describing enough to dispatch to a remote worker:
// the Fingerprint binds the spec to the exact result-determining campaign
// configuration, so a worker running a different workload, seed, or fault
// model refuses the shard instead of silently producing unmergeable
// results.
type ShardSpec struct {
	// Index and Shards locate this shard in the plan ([0, Shards)).
	Index  int `json:"index"`
	Shards int `json:"shards"`
	// From (inclusive) and To (exclusive) bound the experiment IDs this
	// shard executes. From == To is a legal empty shard.
	From int `json:"from"`
	To   int `json:"to"`
	// IDs, when non-empty, enumerates the exact experiment IDs this shard
	// executes instead of the contiguous [From, To) range. This is the
	// dispatch vehicle of coordinators: each batch of experiments the
	// engine hands an Executor — pending IDs, or one adaptive round —
	// splits across workers as explicit-ID shards, which the workers
	// execute without knowing any policy. IDs must be strictly ascending
	// and lie within [0, Runs); From and To are ignored.
	IDs []int `json:"ids,omitempty"`
	// Runs is the whole campaign's run count (the union of all shards).
	Runs int `json:"runs"`
	// Fingerprint is CampaignConfig.Fingerprint() of the campaign this
	// shard belongs to.
	Fingerprint string `json:"fingerprint"`
}

// Size returns the number of experiments in the shard.
func (s ShardSpec) Size() int {
	if len(s.IDs) > 0 {
		return len(s.IDs)
	}
	return s.To - s.From
}

// ids enumerates the shard's experiment IDs in ascending order.
func (s ShardSpec) ids() []int {
	if len(s.IDs) > 0 {
		return s.IDs
	}
	out := make([]int, 0, s.To-s.From)
	for id := s.From; id < s.To; id++ {
		out = append(out, id)
	}
	return out
}

// validate checks the spec against the campaign it claims to belong to.
func (s ShardSpec) validate(cfg CampaignConfig) error {
	if len(s.IDs) > 0 {
		prev := -1
		for _, id := range s.IDs {
			if id <= prev {
				return &FieldError{Field: "Shard.IDs", Reason: "must be strictly ascending"}
			}
			if id < 0 || id >= cfg.Runs {
				return &FieldError{Field: "Shard.IDs", Reason: fmt.Sprintf(
					"ID %d outside campaign [0,%d)", id, cfg.Runs)}
			}
			prev = id
		}
	} else if s.From < 0 || s.From > s.To || s.To > cfg.Runs {
		return &FieldError{Field: "Shard", Reason: fmt.Sprintf(
			"range [%d,%d) outside campaign [0,%d)", s.From, s.To, cfg.Runs)}
	}
	if s.Runs != 0 && s.Runs != cfg.Runs {
		return &FieldError{Field: "Shard.Runs", Reason: fmt.Sprintf(
			"spec covers a %d-run campaign, config has %d", s.Runs, cfg.Runs)}
	}
	if s.Fingerprint != "" {
		if fp := cfg.Fingerprint(); s.Fingerprint != fp {
			return fmt.Errorf("harness: shard %d [%d,%d): %w: spec %s, config %s",
				s.Index, s.From, s.To, ErrFingerprintMismatch, s.Fingerprint, fp)
		}
	}
	return nil
}

// PlanShards carves the campaign's experiment IDs [0, Runs) into n
// contiguous shard specs of near-equal size (the first Runs mod n shards
// get one extra experiment). When n exceeds Runs the tail shards are
// empty; every spec carries the campaign fingerprint.
func PlanShards(cfg CampaignConfig, n int) ([]ShardSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, &FieldError{Field: "Shards", Reason: "must be > 0"}
	}
	fp := cfg.Fingerprint()
	base, rem := cfg.Runs/n, cfg.Runs%n
	specs := make([]ShardSpec, n)
	from := 0
	for i := range specs {
		size := base
		if i < rem {
			size++
		}
		specs[i] = ShardSpec{
			Index:       i,
			Shards:      n,
			From:        from,
			To:          from + size,
			Runs:        cfg.Runs,
			Fingerprint: fp,
		}
		from += size
	}
	return specs, nil
}

// IDRange is a half-open, merged range of completed experiment IDs.
type IDRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// IDFit is one run's propagation fit keyed by experiment ID, retained so a
// merged campaign rebuilds its model from fits in ID order — float
// accumulation is order-sensitive, and recomputing from the merged inputs
// is what makes the merged model byte-identical to a single-process run.
type IDFit struct {
	ID  int          `json:"id"`
	Fit model.RunFit `json:"fit"`
	// Stratum is the experiment's sampling stratum when the campaign is
	// stratified (0 otherwise, omitted from JSON so unstratified partials
	// keep their historical bytes).
	Stratum int `json:"stratum,omitempty"`
}

// Merge and shard errors.
var (
	// ErrIncompleteCampaign reports a Finalize over partials that do not
	// cover the whole experiment ID space.
	ErrIncompleteCampaign = errors.New("harness: partial results do not cover the campaign")
	// ErrShardOverlap reports merging partials whose ID ranges intersect.
	ErrShardOverlap = errors.New("harness: shard ID ranges overlap")
	// ErrMergeMismatch reports merging partials from incompatible
	// aggregation configurations (retention caps, golden run).
	ErrMergeMismatch = errors.New("harness: partial results disagree")
)

// PartialResult is the campaign aggregate of a campaign slice: every
// experiment in Ranges folded in (add, aggregate.go), plus the campaign
// metadata a finalized CampaignResult needs. Partials round-trip JSON
// exactly, merge deterministically in any order, and Finalize recomputes
// the propagation model from the merged fit inputs, so
//
//	merge(shard results in any order).Finalize()
//
// is byte-identical to RunCampaign over the whole ID space.
type PartialResult struct {
	// Fingerprint guards merges: only partials of the same
	// result-determining campaign configuration combine.
	Fingerprint string `json:"fingerprint"`
	// Ranges are the completed experiment ID ranges, normalized (sorted,
	// disjoint, adjacent ranges coalesced).
	Ranges []IDRange `json:"ranges"`

	App            string          `json:"app"`
	Params         apps.Params     `json:"params"`
	Runs           int             `json:"runs"`
	Golden         classify.Golden `json:"golden"`
	GoldenSites    []uint64        `json:"goldenSites"`
	AllocatedWords int64           `json:"allocatedWords"`

	// KeepProfiles and MaxSummaries echo the retention configuration the
	// partial was aggregated under; partials with different retention do
	// not merge (the retained sets would not be comparable).
	KeepProfiles int `json:"keepProfiles"`
	MaxSummaries int `json:"maxSummaries"`

	Tally        classify.Tally      `json:"tally"`
	StructTotals map[string]int      `json:"structTotals"`
	Experiments  []ExperimentSummary `json:"experiments"`
	// Profiles holds the retained CML profiles, ID-sorted; per-outcome
	// retention caps are re-applied on merge using each profile's Outcome.
	Profiles []Profile `json:"profiles"`
	// Fits are the FPS fit inputs, ID-sorted; the model itself is only
	// computed at Finalize, never merged.
	Fits   []IDFit      `json:"fits"`
	Spread SpreadSeries `json:"spread"`
	// HasSpread distinguishes "no experiment produced a spread series"
	// from a zero-valued one.
	HasSpread bool `json:"hasSpread"`

	// Strata holds the per-stratum outcome tallies when the campaign is
	// stratified (Sampling.TargetCI or Sampling.Strata set). Integer counts
	// only, so merging stays commutative and associative; empty — and
	// omitted from JSON — for unstratified campaigns.
	Strata []StratumTally `json:"strata,omitempty"`
	// Sites holds the per-static-site outcome and propagation-pattern
	// tallies when per-site analytics are enabled (Sampling.Sites). Like
	// Strata, pure integer counts: merging stays commutative and
	// associative, and the slice is empty — and omitted from JSON — for
	// campaigns without site analytics, so legacy partials keep their
	// historical bytes.
	Sites []SiteTally `json:"sites,omitempty"`
	// AdaptiveDone marks a partial whose adaptive planner reached its
	// stopping criterion: every stratum's outcome rates are within the
	// target CI (or its ID pool is exhausted). Finalize accepts partial ID
	// coverage from such a result — the uncovered IDs were deliberately
	// not spent. ORed on merge.
	AdaptiveDone bool `json:"adaptiveDone,omitempty"`

	// Timings carries the shard's phase-latency histograms when the run
	// was traced (CampaignConfig.Timings). Observability only: merged
	// like every other aggregate but never fingerprinted, never part of
	// the finalized CampaignResult, and absent unless tracing was on —
	// so untraced partials stay byte-identical to earlier releases.
	Timings *CampaignTimings `json:"timings,omitempty"`
}

// Merge folds other into p. The operation is commutative and associative
// over a set of disjoint partials: every retention rule depends only on
// experiment IDs and contents, so any merge order yields the same bytes.
// Partials must share a fingerprint, retention configuration, and golden
// run; overlapping ID ranges are refused.
func (p *PartialResult) Merge(other *PartialResult) error {
	if other == nil {
		return fmt.Errorf("%w: nil partial", ErrMergeMismatch)
	}
	if p.Fingerprint != other.Fingerprint {
		return fmt.Errorf("%w: %s vs %s", ErrFingerprintMismatch, p.Fingerprint, other.Fingerprint)
	}
	if p.KeepProfiles != other.KeepProfiles || p.MaxSummaries != other.MaxSummaries {
		return fmt.Errorf("%w: retention caps differ (profiles %d vs %d, summaries %d vs %d)",
			ErrMergeMismatch, p.KeepProfiles, other.KeepProfiles, p.MaxSummaries, other.MaxSummaries)
	}
	if p.Golden.Cycles != other.Golden.Cycles || p.Runs != other.Runs {
		return fmt.Errorf("%w: golden cycles %d vs %d, runs %d vs %d",
			ErrMergeMismatch, p.Golden.Cycles, other.Golden.Cycles, p.Runs, other.Runs)
	}
	merged, err := mergeRanges(p.Ranges, other.Ranges)
	if err != nil {
		return err
	}
	p.Ranges = merged

	p.Tally.Merge(other.Tally)
	if p.StructTotals == nil && other.StructTotals != nil {
		p.StructTotals = make(map[string]int, len(other.StructTotals))
	}
	for k, v := range other.StructTotals {
		p.StructTotals[k] += v
	}

	// Summaries: the global lowest-K-by-ID set is the lowest K of the
	// union of per-shard lowest-K sets, because any globally retained ID
	// is necessarily retained by its own shard.
	p.Experiments = mergeSortedByID(p.Experiments, other.Experiments, p.MaxSummaries, summaryID)

	// Profiles: same argument, but the cap is per outcome class. other
	// holds at most KeepProfiles × NumOutcomes of them; each folds in as
	// add folds one.
	for _, pr := range other.Profiles {
		p.Profiles = keepProfile(p.Profiles, pr, p.KeepProfiles)
	}

	// Fits merge uncapped; the model is rebuilt from them at Finalize.
	p.Fits = mergeSortedByID(p.Fits, other.Fits, 0, fitID)

	// Per-stratum tallies are pure integer counts: union by stratum index.
	strata, err := mergeStratumTallies(p.Strata, other.Strata)
	if err != nil {
		return err
	}
	p.Strata = strata

	// Per-site tallies merge the same way: union by static site ordinal.
	sites, err := mergeSiteTallies(p.Sites, other.Sites)
	if err != nil {
		return err
	}
	p.Sites = sites
	p.AdaptiveDone = p.AdaptiveDone || other.AdaptiveDone

	if other.HasSpread {
		p.offerSpread(other.Spread)
	}

	// Timings fold like any other aggregate; a shard that ran untraced
	// simply contributes nothing.
	if other.Timings != nil {
		if p.Timings == nil {
			p.Timings = NewCampaignTimings()
		}
		if err := p.Timings.Merge(other.Timings); err != nil {
			return fmt.Errorf("%w: %v", ErrMergeMismatch, err)
		}
	}
	return nil
}

// MergePartials merges the given partials (any order, any boundaries) and
// finalizes them into a complete campaign result.
func MergePartials(parts ...*PartialResult) (*CampaignResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no partials", ErrIncompleteCampaign)
	}
	acc := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := acc.Merge(p); err != nil {
			return nil, err
		}
	}
	return acc.Finalize()
}

// Clone returns a deep-enough copy: the retained slices are copied so
// merging into the clone never aliases the source partial's backing
// arrays. Summary, profile and fit elements themselves are immutable once
// aggregated and are shared.
func (p *PartialResult) Clone() *PartialResult {
	c := *p
	c.Ranges = append([]IDRange(nil), p.Ranges...)
	c.Experiments = append([]ExperimentSummary(nil), p.Experiments...)
	c.Profiles = append([]Profile(nil), p.Profiles...)
	c.Fits = append([]IDFit(nil), p.Fits...)
	c.Strata = append([]StratumTally(nil), p.Strata...)
	c.Sites = append([]SiteTally(nil), p.Sites...)
	if p.StructTotals != nil {
		c.StructTotals = make(map[string]int, len(p.StructTotals))
		for k, v := range p.StructTotals {
			c.StructTotals[k] = v
		}
	}
	c.Timings = p.Timings.Clone()
	return &c
}

// Complete reports whether the partial covers the whole campaign.
func (p *PartialResult) Complete() bool {
	return len(p.Ranges) == 1 && p.Ranges[0].From == 0 && p.Ranges[0].To == p.Runs
}

// Finalize converts a complete partial into the campaign result. The
// propagation model is recomputed here from the merged per-run fits in ID
// order — fits are never merged as aggregates, because FPS and its spread
// are means over runs whose floating-point accumulation must happen in one
// deterministic order to be byte-identical with a single-process run.
// Adaptive partials (AdaptiveDone) finalize with partial ID coverage: the
// planner stopped on purpose, and the per-stratum moments are likewise
// rebuilt here from the merged fits in ID order.
func (p *PartialResult) Finalize() (*CampaignResult, error) {
	if !p.Complete() && !p.AdaptiveDone {
		return nil, fmt.Errorf("%w: covered %v of [0,%d)", ErrIncompleteCampaign, p.Ranges, p.Runs)
	}
	fits := make([]model.RunFit, len(p.Fits))
	for i := range p.Fits {
		fits[i] = p.Fits[i].Fit
	}
	return &CampaignResult{
		App:            p.App,
		Params:         p.Params,
		Runs:           p.Runs,
		Golden:         p.Golden,
		GoldenSites:    p.GoldenSites,
		AllocatedWords: p.AllocatedWords,
		Tally:          p.Tally,
		Experiments:    p.Experiments,
		Profiles:       p.Profiles,
		BestSpread:     p.Spread,
		Model:          model.BuildAppModel(p.App, fits),
		StructTotals:   p.StructTotals,
		Strata:         buildStrataReports(p.Strata, p.Fits),
		Sites:          buildSiteReports(p.Sites),
	}, nil
}

// mergeRanges unions two normalized range sets, refusing overlaps (a
// double-counted experiment would corrupt every aggregate).
func mergeRanges(a, b []IDRange) ([]IDRange, error) {
	all := make([]IDRange, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].From != all[j].From {
			return all[i].From < all[j].From
		}
		return all[i].To < all[j].To
	})
	var out []IDRange
	for _, r := range all {
		if r.From == r.To {
			continue // empty shard contributes no coverage
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			if r.From < last.To {
				return nil, fmt.Errorf("%w: [%d,%d) and [%d,%d)",
					ErrShardOverlap, last.From, last.To, r.From, r.To)
			}
			if r.From == last.To {
				last.To = r.To
				continue
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// mergeSortedByID merges two ID-sorted slices, keeping the lowest-ID cap
// elements (cap <= 0: keep all) — insertByID's rule, applied in one linear
// pass: folding a bulk merge in element by element would go quadratic when
// adaptive round partials interleave their IDs.
func mergeSortedByID[T any](a, b []T, cap int, id func(*T) int) []T {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]T(nil), b...)
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if id(&a[i]) <= id(&b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if cap > 0 && len(out) > cap {
		out = out[:cap]
	}
	return out
}
