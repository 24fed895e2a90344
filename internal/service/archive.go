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

// Campaign archive wiring: completed jobs are archived under their cache
// key, and a repeat submission of an identical key is served straight
// from the archive — a terminal job materializes instantly as a verified
// reference to the entry: its result and its event history are the
// entry's own bytes, read (and checked against the manifest) when asked
// for, never copied.

// cacheKey derives the archive key for a spec's campaign configuration.
// The campaign fingerprint covers every field that determines
// per-experiment results (app, params, runs, seed, fault model,
// sampling), and deliberately excludes pure scheduling knobs (Workers,
// Shards, Snapshots) — results are byte-identical across those, so they
// must share a cache slot. MaxSummaries is the one excluded field that
// DOES shape the stored result (it caps the retained per-experiment
// summaries), so it is folded into the key as a suffix: runs differing
// only in MaxSummaries cache separately instead of serving each other's
// truncated (or untruncated) summary sets.
func cacheKey(fingerprint string, maxSummaries int) string {
	if maxSummaries > 0 {
		return fmt.Sprintf("%s-max%d", fingerprint, maxSummaries)
	}
	return fingerprint
}

// specCacheKey computes the cache key for a validated spec ("" for shard
// jobs, which are partial campaigns and never cached whole).
func specCacheKey(spec JobSpec) string {
	if spec.Shard != nil {
		return ""
	}
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return ""
	}
	return cacheKey(cfg.Fingerprint(), spec.MaxSummaries)
}

// lookupCache consults the archive for key. On a verified hit it returns
// the record; on any miss — no entry, or a corrupt one (which it evicts
// so the slot heals on the next Put) — it returns nil. Counted into the
// cache-hit/miss metrics either way.
func (s *Server) lookupCache(key, trace string) *archive.Record {
	if s.archive == nil || key == "" {
		return nil
	}
	rec, err := s.archive.Get(key)
	switch {
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

// serveCached materializes a cache hit as a terminal job: a fresh job ID
// whose status record — the one thing persisted — names the entry by
// Fingerprint. GET result and Watch streams of the job read the entry
// (Result, handleStream), so they are indistinguishable from a fresh
// run's; the only tells are CacheHit on the status and the zero-width
// Started→Finished interval.
func (s *Server) serveCached(spec JobSpec, trace, tenant, key string, rec *archive.Record) (JobStatus, error) {
	// The status carries three fields of the result; decoding only those
	// still checks the syntax of the whole document.
	var res struct {
		Tally  classify.Tally
		Model  struct{ FPS float64 }
		Strata []harness.StratumReport
	}
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		// The entry verified against its checksum but does not decode: it
		// was archived corrupt. Evict and report a miss upstream.
		s.log.Warn("archived result undecodable, evicting", "fingerprint", key, "err", err)
		_ = s.archive.Remove(key)
		return JobStatus{}, fmt.Errorf("%w: undecodable result: %v", archive.ErrCorrupt, err)
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
			Tally:       &res.Tally,
			FPS:         res.Model.FPS,
			Strata:      res.Strata,
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
	outcomes := make(map[string]int)
	for o := 0; o < classify.NumOutcomes; o++ {
		if n := res.Tally.Counts[o]; n > 0 {
			outcomes[classify.Outcome(o).String()] = n
		}
	}
	meta := archive.Meta{
		Fingerprint:  st.Fingerprint,
		App:          st.Spec.App,
		Runs:         st.Spec.Runs,
		Seed:         st.Spec.Seed,
		MaxSummaries: st.Spec.MaxSummaries,
		Archived:     time.Now().UTC(),
		SourceJob:    st.ID,
		Tenant:       st.Tenant,
		Label:        st.Spec.Label,
		Outcomes:     outcomes,
		FPS:          res.Model.FPS,
	}
	// Coordinated jobs have no single experiment journal (their shards
	// journaled on the workers); Put archives without one and cache hits
	// for them replay no experiment history — the same view a watcher
	// gets attaching to the finished coordinated job itself.
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
	if err := json.Unmarshal(rec.Result, &res); err != nil {
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
