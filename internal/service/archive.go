package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/classify"
	"repro/internal/harness"
)

// Campaign archive wiring: completed jobs are archived under their
// configuration's ArchiveKey, and a repeat submission of an identical key
// is served straight from the archive — a terminal job materializes
// instantly as a verified reference to the entry: its result and its
// event history are the entry's own bytes, read (and checked against the
// manifest) when asked for, never copied.

// lookupCache consults the archive for key. On a verified hit it returns
// the record; on any miss — no entry, a corrupt one, or one archived under
// another journal version or before manifests recorded the version
// (either of which it evicts so the slot heals on the next Put) — it
// returns nil. Counted into the cache-hit/miss metrics either way.
func (s *Server) lookupCache(key, trace string) *archive.Record {
	if s.archive == nil || key == "" {
		return nil
	}
	rec, err := s.archive.Get(key)
	switch {
	case err == nil && !currentEntry(rec):
		// The fingerprint names the campaign, not the semantics its
		// results were computed under.
		s.log.Warn("archive entry of another journal version, evicting", "fingerprint", key,
			"trace", trace, "version", rec.Meta.JournalVersion)
		if rerr := s.archive.Remove(key); rerr != nil {
			s.log.Warn("archive eviction failed", "fingerprint", key, "err", rerr)
		}
	case err == nil:
		s.obs.cacheHits.Inc()
		return rec
	case errors.Is(err, archive.ErrCorrupt):
		// A damaged entry must degrade to a miss, never a wrong result.
		// Evict it so the fresh run's Put repairs the slot.
		s.obs.verifyFailures.Inc()
		s.log.Warn("archive entry corrupt, evicting", "fingerprint", key,
			"trace", trace, "err", err)
		if rerr := s.archive.Remove(key); rerr != nil {
			s.log.Warn("archive eviction failed", "fingerprint", key, "err", rerr)
		}
	case !errors.Is(err, archive.ErrNotFound):
		s.log.Warn("archive read failed", "fingerprint", key, "trace", trace, "err", err)
	}
	s.obs.cacheMisses.Inc()
	return nil
}

// familySource returns the verified journal of the archived campaign a
// fresh job of cfg starts from: the campaign of its family with the most
// runs below its own whose journal is of this build's version (Source).
// Its records are experiments the job need not execute. journal is nil
// when there is none. Adaptive campaigns, whose rounds draw from
// [0, Runs), and shard jobs take no seed.
func (s *Server) familySource(st JobStatus, cfg harness.CampaignConfig) (fp string, runs int, journal []byte) {
	if s.archive == nil || st.Spec.Shard != nil || cfg.Adaptive() {
		return "", 0, nil
	}
	fp, runs, ok := s.archive.Source(cfg.Family(), cfg.Runs, harness.JournalVersion)
	if !ok {
		return "", 0, nil
	}
	journal, err := s.archive.File(fp, archive.JournalFile)
	if err == nil && !harness.CurrentJournal(journal) {
		err = fmt.Errorf("%w: journal of another version", archive.ErrCorrupt)
	}
	if err != nil {
		if errors.Is(err, archive.ErrCorrupt) {
			s.obs.verifyFailures.Inc()
		}
		// The job runs every experiment; the submission path evicts a
		// damaged entry when its own key is asked for.
		s.log.Warn("archive journal not seeded", "job", st.ID, "trace", st.Trace,
			"source", fp, "err", err)
		return "", 0, nil
	}
	return fp, runs, journal
}

// noteSeeded counts and logs a job started from source's runs records.
func (s *Server) noteSeeded(st JobStatus, source string, runs int) {
	s.obs.seededJobs.Inc()
	s.obs.seededRecords.Add(uint64(runs))
	s.log.Info("job seeded from archive", "job", st.ID, "trace", st.Trace,
		"source", source, "source_runs", runs, "runs", st.Spec.Runs)
}

// currentEntry reports whether rec was archived under this build's journal
// version: its manifest says so, and so does its journal's header when it
// has one (entries of older builds' coordinated jobs have none, and their
// manifest is the only witness); an entry whose manifest names no version
// predates the field and is not served.
func currentEntry(rec *archive.Record) bool {
	return rec.Meta.JournalVersion == harness.JournalVersion &&
		(rec.Journal == nil || harness.CurrentJournal(rec.Journal))
}

// serveCached materializes a cache hit as a terminal job: a fresh job ID
// whose status record — the one thing persisted, a line of the status
// log — names the entry by
// Fingerprint. GET result and Watch streams of the job read the entry
// (Result, handleStream), so they are indistinguishable from a fresh
// run's; the only tells are CacheHit on the status and the zero-width
// Started→Finished interval.
func (s *Server) serveCached(spec JobSpec, trace, tenant, key string, rec *archive.Record) (JobStatus, error) {
	// The status carries three fields of the result, and the manifest
	// holds each of them: a hit decodes no result.
	tally, strata, err := entryStatus(rec.Meta)
	if err != nil {
		// The manifest parsed but does not say what the archiving daemon
		// wrote into it. Evict and report a miss upstream.
		s.log.Warn("archive manifest undecodable, evicting", "fingerprint", key, "err", err)
		_ = s.archive.Remove(key)
		return JobStatus{}, fmt.Errorf("%w: %v", archive.ErrCorrupt, err)
	}
	id := s.store.NewID()
	now := time.Now().UTC()
	j := &job{
		status: JobStatus{
			ID:          id,
			Spec:        spec,
			State:       StateDone,
			Created:     now,
			Started:     now,
			Finished:    now,
			Trace:       trace,
			Tenant:      tenant,
			Fingerprint: key,
			CacheHit:    true,
			Tally:       &tally,
			FPS:         rec.Meta.FPS,
			Strata:      strata,
		},
		hub: newHub(trace, s.cfg.StreamBuffer, s.obs.streamDrops),
	}
	// The hub closes at birth: watchers of a settled job replay the
	// journal and then receive the terminal result event, exactly like
	// watchers attaching to any finished job.
	j.hub.close()
	if err := s.store.SaveStatus(j.status); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.log.Info("job served from archive", "job", id, "trace", trace,
		"tenant", tenant, "fingerprint", key, "source_job", rec.Meta.SourceJob)
	return j.snapshot(), nil
}

// entryStatus rebuilds the tally and the strata table of an entry's
// result from its manifest, which archiveResult derived from them.
func entryStatus(m archive.Meta) (classify.Tally, []harness.StratumReport, error) {
	var tally classify.Tally
	for name, n := range m.Outcomes {
		o := 0
		for o < classify.NumOutcomes && classify.Outcome(o).String() != name {
			o++
		}
		if o == classify.NumOutcomes {
			return tally, nil, fmt.Errorf("unknown outcome %q in the manifest", name)
		}
		tally.Counts[o] = n
		tally.Total += n
	}
	var strata []harness.StratumReport
	if m.Strata != nil {
		if err := json.Unmarshal(m.Strata, &strata); err != nil {
			return tally, nil, fmt.Errorf("strata in the manifest: %w", err)
		}
	}
	return tally, strata, nil
}

// entryFile reads one file (archive.ResultFile or JournalFile) of the entry
// that cache-hit job st refers to, verified against the entry's manifest
// on this read. A hit's result and history live exactly as long as its
// entry: once it is evicted or damaged, or the daemon runs without its
// archive, callers get an error and never unverified bytes. Eviction
// stays with the submission path.
func (s *Server) entryFile(st JobStatus, name string) ([]byte, error) {
	if s.archive == nil {
		return nil, ErrArchiveDisabled
	}
	data, err := s.archive.File(st.Fingerprint, name)
	if errors.Is(err, archive.ErrCorrupt) {
		s.obs.verifyFailures.Inc()
		s.log.Warn("archive entry fails verification", "job", st.ID,
			"trace", st.Trace, "fingerprint", st.Fingerprint, "err", err)
	}
	return data, err
}

// archiveResult commits a finished job's result to the archive
// (best-effort: an archive failure is logged, never fails the job — the
// result is already persisted in the job store).
func (s *Server) archiveResult(st JobStatus, res *harness.CampaignResult, data []byte) {
	if s.archive == nil || st.Spec.Shard != nil || st.Fingerprint == "" {
		return
	}
	// Hits serve these bytes without decoding them, so their syntax is
	// checked here, once.
	if !json.Valid(data) {
		s.log.Warn("result is not valid JSON, not archived", "job", st.ID, "trace", st.Trace)
		return
	}
	outcomes := make(map[string]int)
	for o := 0; o < classify.NumOutcomes; o++ {
		if n := res.Tally.Counts[o]; n > 0 {
			outcomes[classify.Outcome(o).String()] = n
		}
	}
	meta := archive.Meta{
		Fingerprint:    st.Fingerprint,
		App:            st.Spec.App,
		Runs:           st.Spec.Runs,
		Seed:           st.Spec.Seed,
		MaxSummaries:   st.Spec.MaxSummaries,
		Archived:       time.Now().UTC(),
		SourceJob:      st.ID,
		Tenant:         st.Tenant,
		Label:          st.Spec.Label,
		Outcomes:       outcomes,
		FPS:            res.Model.FPS,
		JournalVersion: harness.JournalVersion,
	}
	// An adaptive campaign's journal is no prefix of another's.
	if cfg, err := st.Spec.CampaignConfig(); err == nil && !cfg.Adaptive() {
		meta.Family = cfg.Family()
	}
	if res.Strata != nil {
		strata, err := json.Marshal(res.Strata)
		if err != nil {
			s.log.Warn("strata do not encode, not archived", "job", st.ID, "trace", st.Trace, "err", err)
			return
		}
		meta.Strata = strata
	}
	if err := s.archive.Put(meta, data, s.store.JournalPath(st.ID)); err != nil {
		s.log.Warn("archive put failed", "job", st.ID, "trace", st.Trace,
			"fingerprint", st.Fingerprint, "err", err)
		return
	}
	s.log.Info("job archived", "job", st.ID, "trace", st.Trace, "fingerprint", st.Fingerprint)
}

// ArchiveList is the GET /v1/archive document: totals plus every entry's
// metadata in archive-time order.
type ArchiveList struct {
	Entries int            `json:"entries"`
	Bytes   int64          `json:"bytes"`
	Items   []archive.Meta `json:"items"`
}

// ArchiveRecord is the GET /v1/archive/{fingerprint} document: one
// entry's metadata and its full campaign result.
type ArchiveRecord struct {
	Meta   archive.Meta            `json:"meta"`
	Result *harness.CampaignResult `json:"result"`
}

// ArchiveSites is the GET /v1/archive/{fingerprint}/sites document: the
// per-site vulnerability ranking of one archived campaign, without the
// rest of the result payload. Sites is empty (never null) for entries
// archived before per-site analytics existed or for campaigns run with
// site sampling off — the legacy-results rule: absent data renders as
// empty, never as an error.
type ArchiveSites struct {
	Fingerprint string               `json:"fingerprint"`
	App         string               `json:"app"`
	Sites       []harness.SiteReport `json:"sites"`
}

// TrendPoint is one archived campaign inside an app's trend series.
type TrendPoint struct {
	Fingerprint string    `json:"fingerprint"`
	Archived    time.Time `json:"archived"`
	Runs        int       `json:"runs"`
	Seed        uint64    `json:"seed"`
	// FPS is the campaign's fitted fault propagation speed; Rates are
	// per-outcome fractions of runs, so campaigns of different sizes
	// compare directly.
	FPS   float64            `json:"fps,omitempty"`
	Rates map[string]float64 `json:"rates,omitempty"`
}

// AppTrend is one app's outcome-rate and FPS-over-time series in the
// GET /v1/archive/trends document.
type AppTrend struct {
	App    string       `json:"app"`
	Points []TrendPoint `json:"points"`
}

// ArchiveList lists the archive's entries. ErrArchiveDisabled when the
// daemon runs without one.
func (s *Server) ArchiveList() (ArchiveList, error) {
	if s.archive == nil {
		return ArchiveList{}, ErrArchiveDisabled
	}
	items, err := s.archive.List()
	if err != nil {
		return ArchiveList{}, err
	}
	entries, bytes := s.archive.Stats()
	if items == nil {
		items = []archive.Meta{}
	}
	return ArchiveList{Entries: entries, Bytes: bytes, Items: items}, nil
}

// ArchiveEntry loads one archived campaign by fingerprint (the cache
// key). A missing, corrupt, or malformed entry is ErrNoArchiveEntry —
// queries never distinguish damage from absence; only the submission
// path evicts.
func (s *Server) ArchiveEntry(fp string) (ArchiveRecord, error) {
	if s.archive == nil {
		return ArchiveRecord{}, ErrArchiveDisabled
	}
	rec, err := s.archive.Get(fp)
	if err != nil {
		return ArchiveRecord{}, fmt.Errorf("%w: %s", ErrNoArchiveEntry, fp)
	}
	var res harness.CampaignResult
	if err := harness.DecodeResult(rec.Result, &res); err != nil {
		return ArchiveRecord{}, fmt.Errorf("%w: %s", ErrNoArchiveEntry, fp)
	}
	return ArchiveRecord{Meta: rec.Meta, Result: &res}, nil
}

// ArchiveSiteRanking loads the per-site vulnerability ranking of one
// archived campaign. It shares ArchiveEntry's lookup semantics (missing,
// corrupt, and malformed entries are all ErrNoArchiveEntry); an archived
// result without per-site tallies yields an empty ranking.
func (s *Server) ArchiveSiteRanking(fp string) (ArchiveSites, error) {
	rec, err := s.ArchiveEntry(fp)
	if err != nil {
		return ArchiveSites{}, err
	}
	sites := rec.Result.Sites
	if sites == nil {
		sites = []harness.SiteReport{}
	}
	return ArchiveSites{Fingerprint: rec.Meta.Fingerprint, App: rec.Meta.App, Sites: sites}, nil
}

// ArchiveTrends groups the archive by app into archive-time-ordered
// series of outcome rates and FPS — the repeat-query-over-history view
// (how did vulnerability and propagation speed move across campaigns?)
// that needs no result payloads, only manifests.
func (s *Server) ArchiveTrends() ([]AppTrend, error) {
	if s.archive == nil {
		return nil, ErrArchiveDisabled
	}
	items, err := s.archive.List()
	if err != nil {
		return nil, err
	}
	byApp := make(map[string]*AppTrend)
	var apps []string
	for _, m := range items {
		tr := byApp[m.App]
		if tr == nil {
			tr = &AppTrend{App: m.App}
			byApp[m.App] = tr
			apps = append(apps, m.App)
		}
		p := TrendPoint{
			Fingerprint: m.Fingerprint,
			Archived:    m.Archived,
			Runs:        m.Runs,
			Seed:        m.Seed,
			FPS:         m.FPS,
		}
		if m.Runs > 0 && len(m.Outcomes) > 0 {
			p.Rates = make(map[string]float64, len(m.Outcomes))
			for o, n := range m.Outcomes {
				p.Rates[o] = float64(n) / float64(m.Runs)
			}
		}
		tr.Points = append(tr.Points, p)
	}
	sort.Strings(apps)
	out := make([]AppTrend, 0, len(apps))
	for _, app := range apps {
		out = append(out, *byApp[app])
	}
	return out, nil
}
