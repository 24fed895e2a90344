package harness

import (
	"fmt"
	"sort"

	"repro/internal/classify"
	"repro/internal/stats"
)

// Adaptive campaign planning. A fixed-N campaign spends its whole budget
// blindly; the adaptive planner (Sampling.TargetCI > 0) spends it in
// deterministic rounds, steering experiments toward the strata whose
// outcome rates are still uncertain and stopping each stratum once every
// rate is pinned within ±TargetCI (95% Wilson half-width).
//
// Everything the planner decides is a pure function of fingerprinted
// configuration plus the outcomes of earlier rounds — and each outcome is
// itself a pure function of the seed (experiment i draws from
// xrand.At(Seed, i)). Worker counts, completion order, and kill/resume
// boundaries therefore cannot change a single decision: a resumed campaign
// re-derives the very round sequence the killed one ran, skips the
// journaled experiments, and continues byte-identically. The journal
// therefore holds experiments alone, never the decisions.
//
// The policy is split from the engine so a coordinator can run the same
// decisions over remote workers: it consumes only (stratum, outcome)
// pairs, which the integer per-stratum tallies of merged PartialResults
// provide, and emits explicit ID sets, which ShardSpec.IDs dispatches.

// minStratumRuns is the floor before a stratum may stop: below it the
// Wilson interval is meaningless whatever its width.
const minStratumRuns = 8

// adaptiveRoundSize fixes the per-round experiment count as a pure
// function of the budget — never of worker count — so round boundaries
// are identical everywhere.
func adaptiveRoundSize(budget int) int {
	r := budget / 8
	if r < 16 {
		r = 16
	}
	if r > 512 {
		r = 512
	}
	if r > budget {
		r = budget
	}
	return r
}

// roundAlloc is one stratum's slice of a planner round.
type roundAlloc struct {
	Stratum int
	IDs     []int
}

// adaptivePolicy is the pure decision core: per-stratum ID pools in
// ascending order, per-stratum outcome tallies, and a deterministic
// allocator. It never executes anything.
type adaptivePolicy struct {
	target    float64
	roundSize int
	// pools hold each stratum's not-yet-dispatched IDs, ascending.
	pools map[int][]int
	// order is the sorted stratum index set (iteration must never follow
	// map order).
	order   []int
	tallies map[int]classify.Tally
}

// newAdaptivePolicy buckets the budget's experiment IDs into strata by
// drawing each ID's fault plan from its position-addressable stream —
// exactly the plan the experiment will run.
func newAdaptivePolicy(cfg CampaignConfig, ids []int, strata *Strata, sites []uint64) *adaptivePolicy {
	p := &adaptivePolicy{
		target:    cfg.TargetCI,
		roundSize: adaptiveRoundSize(len(ids)),
		pools:     make(map[int][]int),
		tallies:   make(map[int]classify.Tally),
	}
	for _, id := range ids {
		s := strata.StratumOf(planFor(cfg, id, sites))
		p.pools[s] = append(p.pools[s], id)
	}
	for s := range p.pools {
		p.order = append(p.order, s)
	}
	sort.Ints(p.order)
	return p
}

// deficit estimates how many more experiments stratum s needs: the Wald
// sample size for its most uncertain outcome rate, floored at
// minStratumRuns, minus what it has — clamped to its remaining pool. A
// stratum that met the target (or ran dry) has deficit 0 and is closed.
func (p *adaptivePolicy) deficit(s int) int {
	pool := p.pools[s]
	if len(pool) == 0 {
		return 0
	}
	t := p.tallies[s]
	if t.Total >= minStratumRuns && maxHalfWidth(t) <= p.target {
		return 0
	}
	need := stats.WaldSampleSize(worstP(t), p.target, stats.Z95)
	if need < minStratumRuns {
		need = minStratumRuns
	}
	d := need - t.Total
	if d < 1 {
		// The cheap Wald estimate says enough, the Wilson stop check says
		// not yet (Wilson is wider near the boundary): keep sampling.
		d = 1
	}
	if d > len(pool) {
		d = len(pool)
	}
	return d
}

// worstP returns the observed outcome proportion with the largest binomial
// variance p(1-p) — the rate that needs the most samples to pin — or 0.5
// before any observation.
func worstP(t classify.Tally) float64 {
	if t.Total == 0 {
		return 0.5
	}
	best, bestVar := 0.5, -1.0
	for o := 0; o < classify.NumOutcomes; o++ {
		pp := float64(t.Counts[o]) / float64(t.Total)
		if v := pp * (1 - pp); v > bestVar {
			bestVar, best = v, pp
		}
	}
	return best
}

// nextRound allocates the next round across the open strata by
// largest-remainder apportionment proportional to their deficits (integer
// arithmetic only, ties to the lowest stratum index), drawing IDs from
// each pool in ascending order. A nil return means every stratum is
// closed: the campaign reached its target or exhausted its budget.
func (p *adaptivePolicy) nextRound() []roundAlloc {
	type open struct{ stratum, deficit int }
	var opens []open
	total := 0
	for _, s := range p.order {
		if d := p.deficit(s); d > 0 {
			opens = append(opens, open{s, d})
			total += d
		}
	}
	if total == 0 {
		return nil
	}
	size := p.roundSize
	if size > total {
		size = total
	}
	quota := make([]int, len(opens))
	assigned := 0
	type rem struct{ i, r int }
	rems := make([]rem, len(opens))
	for i, o := range opens {
		quota[i] = size * o.deficit / total
		assigned += quota[i]
		rems[i] = rem{i: i, r: size * o.deficit % total}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return opens[rems[a].i].stratum < opens[rems[b].i].stratum
	})
	// size <= total guarantees some quota is below its deficit while
	// assigned < size, so this terminates.
	for k := 0; assigned < size; k = (k + 1) % len(rems) {
		if i := rems[k].i; quota[i] < opens[i].deficit {
			quota[i]++
			assigned++
		}
	}
	out := make([]roundAlloc, 0, len(opens))
	for i, o := range opens {
		if quota[i] == 0 {
			continue
		}
		pool := p.pools[o.stratum]
		take := append([]int(nil), pool[:quota[i]]...)
		p.pools[o.stratum] = pool[quota[i]:]
		out = append(out, roundAlloc{Stratum: o.stratum, IDs: take})
	}
	return out
}

// fold feeds one completed round's outcomes back into the policy. Integer
// tallies commute, so the fold order within a round is irrelevant.
func (p *adaptivePolicy) fold(round []roundAlloc, outcomes map[int]classify.Outcome) {
	for _, a := range round {
		t := p.tallies[a.Stratum]
		for _, id := range a.IDs {
			t.Add(outcomes[id])
		}
		p.tallies[a.Stratum] = t
	}
}

// runAdaptive is the engine's sequential planning loop over the shard's
// budget ids: compute a round, execute its not-yet-completed IDs, feed the
// outcomes back, repeat until every stratum meets the target CI or runs
// dry. Replayed journal records participate exactly like live runs — their
// outcomes are pure functions of the seed, so the re-derived decision
// sequence matches the one the killed campaign ran.
func (e *campaignEngine) runAdaptive(ids []int) error {
	pol := newAdaptivePolicy(e.cfg, ids, e.strata, e.part.GoldenSites)
	for {
		allocs := pol.nextRound()
		if allocs == nil {
			e.part.AdaptiveDone = true
			return nil
		}
		var torun []int
		for _, a := range allocs {
			for _, id := range a.IDs {
				if !e.completed[id] {
					torun = append(torun, id)
				}
			}
		}
		sort.Ints(torun)
		if err := e.runIDs(torun); err != nil {
			return err
		}
		if e.halted {
			// Interrupted mid-round: AdaptiveDone stays false, the caller
			// reports ErrInterrupted, and the journal holds every completed
			// experiment for the resume to replay.
			return nil
		}
		pol.fold(allocs, e.outcomes)
	}
}

// AdaptivePlanner is the exported decision core for coordinators that
// execute adaptive rounds on remote workers. It makes exactly the
// decisions the local engine makes: NextRound yields the experiment IDs of
// the next deterministic round (nil once every stratum met the target CI
// or ran dry), the coordinator executes them wherever it likes — typically
// as explicit-ID ShardSpecs on peer workers — and Fold feeds the round's
// merged per-stratum tallies back. Outcomes are pure functions of the
// seed, so a coordinated adaptive campaign runs the same experiment set,
// and merges to the same bytes, as a local adaptive run.
type AdaptivePlanner struct {
	pol  *adaptivePolicy
	done bool
}

// NewAdaptivePlanner builds the planner for an adaptive configuration
// (Sampling.TargetCI > 0). Its stratification comes from the
// configuration's pack — the one workers of the same process and
// configuration run their round shards on.
func NewAdaptivePlanner(cfg CampaignConfig) (*AdaptivePlanner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if !cfg.Adaptive() {
		return nil, &FieldError{Field: "Sampling.TargetCI", Reason: "adaptive planning needs a target CI"}
	}
	pack, err := packFor(cfg)
	if err != nil {
		return nil, err
	}
	m, err := pack.siteMapOf(cfg)
	if err != nil {
		return nil, err
	}
	ids := make([]int, cfg.Runs)
	for i := range ids {
		ids[i] = i
	}
	strata := pack.strata(m, cfg.Sampling.phases())
	return &AdaptivePlanner{pol: newAdaptivePolicy(cfg, ids, strata, pack.goldenSites)}, nil
}

// NextRound returns the next round's experiment IDs in ascending order,
// or nil when the campaign is done (Done() turns true).
func (p *AdaptivePlanner) NextRound() []int {
	if p.done {
		return nil
	}
	allocs := p.pol.nextRound()
	if allocs == nil {
		p.done = true
		return nil
	}
	var ids []int
	for _, a := range allocs {
		ids = append(ids, a.IDs...)
	}
	sort.Ints(ids)
	return ids
}

// Done reports whether every stratum has met the target CI or exhausted
// its pool; the executed subset then finalizes with AdaptiveDone set.
func (p *AdaptivePlanner) Done() bool { return p.done }

// Fold feeds one executed round's per-stratum outcome tallies back into
// the policy. The Strata field of the round's merged PartialResult is
// exactly this shape; integer tallies commute, so worker merge order is
// irrelevant.
func (p *AdaptivePlanner) Fold(tallies []StratumTally) {
	for _, st := range tallies {
		t := p.pol.tallies[st.Stratum]
		t.Merge(st.Tally)
		p.pol.tallies[st.Stratum] = t
	}
}

// PlanRoundShards splits one planner round's IDs across n workers as
// contiguous near-equal explicit-ID shard specs carrying the campaign
// fingerprint. Shards that would be empty are omitted, so the result may
// be shorter than n.
func PlanRoundShards(cfg CampaignConfig, ids []int, n int) []ShardSpec {
	if n < 1 {
		n = 1
	}
	fp := cfg.Fingerprint()
	base, rem := len(ids)/n, len(ids)%n
	specs := make([]ShardSpec, 0, n)
	from := 0
	for i := 0; i < n && from < len(ids); i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		specs = append(specs, ShardSpec{
			Index:       i,
			Shards:      n,
			IDs:         append([]int(nil), ids[from:from+size]...),
			Runs:        cfg.Runs,
			Fingerprint: fp,
		})
		from += size
	}
	return specs
}

// checkAdaptiveResume diagnoses the one resume mismatch Validate cannot
// catch: pointing an adaptive campaign (TargetCI set) at a journal written
// by the same campaign WITHOUT the adaptive policy, or vice versa. The
// fingerprints differ only by the sampling-policy suffix, so the generic
// mismatch error is technically right but opaque; this returns a typed
// FieldError naming the offending knob instead.
func checkAdaptiveResume(cfg CampaignConfig, spec ShardSpec, wantFP string) error {
	hdr, err := readHeader(cfg.Checkpoint)
	hdrFP := hdr.Fingerprint
	if err != nil || hdrFP == "" || hdrFP == wantFP {
		// Absent, unreadable, or matching journals flow to readJournal,
		// which reports those conditions properly.
		return nil
	}
	legacy := cfg.key()
	legacy.targetCI, legacy.strata = 0, 0
	if hdrFP == legacy.journalFingerprint(spec) {
		return &FieldError{Field: "Sampling.TargetCI", Reason: fmt.Sprintf(
			"checkpoint %s was written by a non-adaptive campaign; drop the target CI or start a fresh checkpoint",
			cfg.Checkpoint)}
	}
	return nil
}
