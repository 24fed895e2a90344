package harness

import (
	"fmt"
	"hash/fnv"
)

// The campaign key answers "which campaign is this, and which of its
// results may be reused?". Every identity derives from it: the campaign
// fingerprint (checkpoint journal headers, shard specs, partials), a
// shard's journal fingerprint, the snapshot pack's protect token and the
// archive key. This file is the only one that hashes or formats them.

// defaultHangFactor is the hang budget, in golden cycle counts, of a
// configuration that leaves HangFactor zero.
const defaultHangFactor = 4

// campaignKey holds every configuration field that determines
// per-experiment results, by name, with the result-determining defaults
// resolved. Workers, Snapshots, Gate, the retention caps, persistence and
// the observers are not in it: they schedule, bound or watch a campaign,
// and its results are byte-identical across them.
type campaignKey struct {
	app string
	// The four apps.Params fields, named so that a new Params field
	// changes no key until it is added here (TestCampaignKeysPinned).
	ranks, size, steps int
	paramSeed          uint64

	runs   int
	seed   uint64
	lambda float64
	hang   float64
	sample uint64
	// strata is the resolved phase count, positive exactly when the
	// campaign is stratified; targetCI is encoded only then.
	targetCI float64
	strata   int
	sites    bool
	protect  []int
}

// key is the only place the result-determining defaults are resolved;
// withDefaults takes them from here.
func (cfg CampaignConfig) key() campaignKey {
	k := campaignKey{
		app:       cfg.App.Name(),
		ranks:     cfg.Params.Ranks,
		size:      cfg.Params.Size,
		steps:     cfg.Params.Steps,
		paramSeed: cfg.Params.Seed,
		runs:      cfg.Runs,
		seed:      cfg.Seed,
		lambda:    cfg.MultiFaultLambda,
		hang:      cfg.HangFactor,
		sample:    cfg.SampleEvery,
		targetCI:  cfg.TargetCI,
		strata:    cfg.Sampling.phases(),
		sites:     cfg.Sites,
		protect:   cfg.Protect,
	}
	if k.hang == 0 {
		k.hang = defaultHangFactor
	}
	return k
}

// fingerprint hashes the key's encoding. The encoding is the one every
// journal and archive entry was written under: the params read as Go's
// %+v of apps.Params did, and each policy field is appended only when
// set, so configurations that predate a field keep their fingerprints.
func (k campaignKey) fingerprint() string { return hash64(k.encode(true)) }

// family hashes the key's encoding without runs: the campaigns whose
// experiment i is the same experiment, whatever their length. Experiment
// i's plan draws from xrand.At(seed, i) and reads no run count, so a
// journal of the family holds records any longer member can replay
// (TestRecordsIndependentOfRuns).
func (k campaignKey) family() string { return hash64(k.encode(false)) }

// encode is the key's encoding (see fingerprint), with runs or without.
func (k campaignKey) encode(runs bool) []byte {
	b := fmt.Appendf(nil, "app=%s|params={Ranks:%d Size:%d Steps:%d Seed:%d}|",
		k.app, k.ranks, k.size, k.steps, k.paramSeed)
	if runs {
		b = fmt.Appendf(b, "runs=%d|", k.runs)
	}
	b = fmt.Appendf(b, "seed=%d|lambda=%g|hang=%g|sample=%d", k.seed, k.lambda, k.hang, k.sample)
	if k.strata > 0 {
		b = fmt.Appendf(b, "|ci=%g|strata=%d", k.targetCI, k.strata)
	}
	if k.sites {
		b = append(b, "|sites=1"...)
	}
	if len(k.protect) > 0 {
		b = append(b, "|protect="...)
		b = append(b, token(k.protect)...)
	}
	return b
}

// journalFingerprint binds a shard's checkpoint journal to its ID range
// or ID set as well as to the campaign, so a shard cannot resume from a
// sibling's journal. The whole range keeps the bare fingerprint, as
// journals written before sharding existed have.
func (k campaignKey) journalFingerprint(spec ShardSpec) string {
	fp := k.fingerprint()
	switch {
	case len(spec.IDs) > 0:
		return fp + "|ids=" + token(spec.IDs)
	case spec.From == 0 && spec.To == spec.Runs:
		return fp
	}
	return fmt.Sprintf("%s|shard=%d-%d", fp, spec.From, spec.To)
}

// token condenses a protect list or a shard's IDs into a 16-hex-digit
// hash; the snapshot pack keys on the protect token too.
func token(ints []int) string {
	if len(ints) == 0 {
		return ""
	}
	var b []byte
	for _, v := range ints {
		b = fmt.Appendf(b, "%d,", v)
	}
	return hash64(b)
}

func hash64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint identifies the campaign a configuration runs. It binds
// checkpoint journals, shard specs and partial results to their campaign:
// resuming or merging under a different seed, workload or fault model is
// refused rather than silently mixing incompatible experiments.
func (cfg CampaignConfig) Fingerprint() string { return cfg.key().fingerprint() }

// Family identifies the campaigns that differ from this one in Runs
// alone. A journal of the family resumes any campaign of it at least as
// long (readJournal), and faultpropd seeds a longer campaign's job from
// an archived shorter one.
func (cfg CampaignConfig) Family() string { return cfg.key().family() }

// ArchiveKey is the key a finished campaign is archived and looked up
// under: the fingerprint, plus MaxSummaries when it is set. MaxSummaries
// is the one field outside the fingerprint that shapes the stored result
// (it caps the retained summaries), so campaigns differing only in it do
// not serve each other's summary sets.
func (cfg CampaignConfig) ArchiveKey() string {
	if cfg.MaxSummaries > 0 {
		return fmt.Sprintf("%s-max%d", cfg.Fingerprint(), cfg.MaxSummaries)
	}
	return cfg.Fingerprint()
}
