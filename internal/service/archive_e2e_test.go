package service_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
)

// rawResult fetches a job's stored result over plain HTTP so tests can
// compare the exact bytes the daemon serves, not a decode/re-encode.
func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s = %d", id, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCacheHitByteIdentity is the archive acceptance gate: resubmitting
// an identical spec must be served from the archive as a terminal
// cache-hit job whose result bytes, rendered study, and replayed event
// stream are indistinguishable from the original run.
func TestCacheHitByteIdentity(t *testing.T) {
	arch := t.TempDir()
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
	ctx := context.Background()
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}

	first, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fst := waitDone(t, d.c, first.ID)
	if fst.State != service.StateDone || fst.CacheHit {
		t.Fatalf("first run settled as %s cacheHit=%v: %s", fst.State, fst.CacheHit, fst.Error)
	}
	if fst.Fingerprint == "" {
		t.Fatal("finished job carries no fingerprint")
	}
	firstBytes := rawResult(t, d.http.URL, first.ID)

	second, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	sst := waitDone(t, d.c, second.ID)
	if sst.State != service.StateDone || !sst.CacheHit {
		t.Fatalf("resubmission settled as %s cacheHit=%v: %s", sst.State, sst.CacheHit, sst.Error)
	}
	if sst.Fingerprint != fst.Fingerprint {
		t.Errorf("fingerprints differ: %q vs %q", sst.Fingerprint, fst.Fingerprint)
	}
	if sst.Tally == nil || fst.Tally == nil || *sst.Tally != *fst.Tally {
		t.Errorf("terminal tallies differ: %+v vs %+v", sst.Tally, fst.Tally)
	}

	secondBytes := rawResult(t, d.http.URL, second.ID)
	if string(firstBytes) != string(secondBytes) {
		t.Errorf("cache-hit result is not byte-identical (%d vs %d bytes)",
			len(firstBytes), len(secondBytes))
	}

	// The rendered study — every figure and table — must also match.
	orig, err := d.c.Result(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := d.c.Result(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if harness.RenderStudy(orig) != harness.RenderStudy(cached) {
		t.Error("rendered study differs between original and cache hit")
	}

	// Watching the cache-hit job replays the copied journal: the full
	// experiment history, then the terminal result event.
	experiments, gotResult := 0, false
	if _, err := d.c.Watch(ctx, second.ID, func(ev service.Event) error {
		switch ev.Kind {
		case service.EventExperiment:
			experiments++
		case service.EventResult:
			gotResult = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if experiments != spec.Runs {
		t.Errorf("cache-hit stream replayed %d experiments, want %d", experiments, spec.Runs)
	}
	if !gotResult {
		t.Error("cache-hit stream ended without a result event")
	}

	// Cache traffic and archive size are part of the metrics surface,
	// in both the JSON document and the Prometheus text format.
	m, err := d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.ArchiveEntries != 1 || m.ArchiveBytes <= 0 {
		t.Errorf("archive entries/bytes = %d/%d, want 1 entry with nonzero bytes",
			m.ArchiveEntries, m.ArchiveBytes)
	}
	resp, err := http.Get(d.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"faultpropd_cache_hits_total 1",
		"faultpropd_cache_misses_total 1",
		"faultpropd_archive_entries 1",
		"faultpropd_archive_bytes",
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("prometheus text missing %q", series)
		}
	}

	v, err := d.c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(v.Capabilities, ","), "archive") {
		t.Errorf("capabilities %v missing archive", v.Capabilities)
	}
}

// TestArchiveSitesView covers GET /v1/archive/{fingerprint}/sites: a
// sites-enabled job's archived ranking is served as-is, a legacy
// (sites-off) entry yields an empty non-null ranking, and the daemon
// advertises the "sites" capability.
func TestArchiveSitesView(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir()})
	ctx := context.Background()

	v, err := d.c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(v.Capabilities, ","), "sites") {
		t.Errorf("capabilities %v missing sites", v.Capabilities)
	}

	withSites := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5,
		SampleEvery: 64, Sampling: &service.SamplingSpec{Sites: true}}
	st, err := d.c.Submit(ctx, withSites)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, d.c, st.ID)
	if done.State != service.StateDone {
		t.Fatalf("sites job settled as %s: %s", done.State, done.Error)
	}
	ranking, err := d.c.ArchiveSites(ctx, done.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Sites) == 0 {
		t.Fatal("archived sites view is empty for a sites-enabled job")
	}
	res, err := d.c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != len(ranking.Sites) || res.Sites[0] != ranking.Sites[0] {
		t.Errorf("sites view diverges from the stored result: %d vs %d rows",
			len(ranking.Sites), len(res.Sites))
	}

	// A legacy entry — archived without per-site analytics — serves an
	// empty ranking, not an error and not null.
	legacy := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}
	lst, err := d.c.Submit(ctx, legacy)
	if err != nil {
		t.Fatal(err)
	}
	ldone := waitDone(t, d.c, lst.ID)
	if ldone.Fingerprint == done.Fingerprint {
		t.Fatal("sites-on and sites-off jobs share a fingerprint")
	}
	lranking, err := d.c.ArchiveSites(ctx, ldone.Fingerprint)
	if err != nil {
		t.Fatalf("legacy sites view: %v", err)
	}
	if lranking.Sites == nil || len(lranking.Sites) != 0 {
		t.Errorf("legacy sites view = %v, want empty non-null", lranking.Sites)
	}

	// Unknown fingerprints are a wire-coded miss.
	if _, err := d.c.ArchiveSites(ctx, "no-such-entry"); !errors.Is(err, service.ErrNoArchiveEntry) {
		t.Errorf("missing entry error = %v, want ErrNoArchiveEntry", err)
	}
}

// TestCacheHitSurvivesRestart: the archive outlives the daemon. A fresh
// daemon process over an EMPTY job store but the SAME archive directory
// must serve the resubmission from the archive, byte-identical.
func TestCacheHitSurvivesRestart(t *testing.T) {
	arch := t.TempDir()
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}

	d1 := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
	first, err := d1.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d1.c, first.ID)
	firstBytes := rawResult(t, d1.http.URL, first.ID)
	orig, err := d1.c.Result(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	d1.stop(t)

	// New process, new (empty) data dir: only the archive carries history.
	d2 := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
	second, err := d2.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sst := waitDone(t, d2.c, second.ID)
	if sst.State != service.StateDone || !sst.CacheHit {
		t.Fatalf("post-restart resubmission settled as %s cacheHit=%v: %s",
			sst.State, sst.CacheHit, sst.Error)
	}
	secondBytes := rawResult(t, d2.http.URL, second.ID)
	if string(firstBytes) != string(secondBytes) {
		t.Errorf("post-restart cache hit not byte-identical (%d vs %d bytes)",
			len(firstBytes), len(secondBytes))
	}
	cached, err := d2.c.Result(context.Background(), second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if harness.RenderStudy(orig) != harness.RenderStudy(cached) {
		t.Error("rendered study differs across the restart")
	}
}

// TestCorruptEntryDegradesToFreshRun: damage to an archived entry must
// never crash the daemon or serve a wrong result — the submission runs
// fresh, and its archival heals the slot for the next hit.
func TestCorruptEntryDegradesToFreshRun(t *testing.T) {
	arch := t.TempDir()
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
	ctx := context.Background()
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}

	first, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fst := waitDone(t, d.c, first.ID)
	firstBytes := rawResult(t, d.http.URL, first.ID)

	// Truncate the archived result behind the daemon's back.
	resFile := filepath.Join(arch, "entries", fst.Fingerprint, "result.json")
	data, err := os.ReadFile(resFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resFile, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	sst := waitDone(t, d.c, second.ID)
	if sst.State != service.StateDone {
		t.Fatalf("resubmission over corrupt entry settled as %s: %s", sst.State, sst.Error)
	}
	if sst.CacheHit {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if got := rawResult(t, d.http.URL, second.ID); string(got) != string(firstBytes) {
		t.Error("fresh rerun after corruption does not match the original result")
	}

	// The fresh run's archival healed the slot: third submission hits.
	third, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	tst := waitDone(t, d.c, third.ID)
	if !tst.CacheHit {
		t.Error("slot did not heal: third submission was not a cache hit")
	}
}

// TestTenantQuotaOverWire: per-tenant active-job quotas reject the
// overflow submission with a wire-coded error (errors.Is works through
// HTTP) while leaving other tenants unaffected.
func TestTenantQuotaOverWire(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1, TenantQuota: 1})
	ctx := context.Background()
	alice, err := service.NewClient(d.http.URL, service.WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := service.NewClient(d.http.URL, service.WithTenant("bob"))
	if err != nil {
		t.Fatal(err)
	}

	long := service.JobSpec{App: "LULESH", Scale: "test", Runs: 4000, Seed: 3}
	st, err := alice.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" {
		t.Errorf("job tenant = %q, want alice", st.Tenant)
	}
	if _, err := alice.Submit(ctx, long); !errors.Is(err, service.ErrQuotaExceeded) {
		t.Errorf("alice's second submit = %v, want errors.Is ErrQuotaExceeded", err)
	}
	// Quotas are per tenant: bob is not crowded out by alice.
	bst, err := bob.Submit(ctx, long)
	if err != nil {
		t.Fatalf("bob's submit rejected: %v", err)
	}
	for _, id := range []string{st.ID, bst.ID} {
		if _, err := d.c.Cancel(ctx, id); err != nil {
			t.Errorf("cancel %s: %v", id, err)
		}
		waitDone(t, d.c, id)
	}
	// With alice's job settled, her quota frees again.
	st2, err := alice.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 3})
	if err != nil {
		t.Fatalf("alice's submit after quota freed: %v", err)
	}
	waitDone(t, d.c, st2.ID)
}

// TestTenantRateLimitOverWire: the token bucket rejects a tenant's burst
// overflow with ErrRateLimited (HTTP 429) but keeps buckets per tenant.
func TestTenantRateLimitOverWire(t *testing.T) {
	// A refill rate this slow makes the test deterministic: one token in
	// the bucket, and no realistic test duration refills the next one.
	d := startDaemon(t, t.TempDir(), service.Config{TenantRate: 0.0001, TenantBurst: 1})
	ctx := context.Background()
	alice, err := service.NewClient(d.http.URL, service.WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := service.NewClient(d.http.URL, service.WithTenant("bob"))
	if err != nil {
		t.Fatal(err)
	}

	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 1}
	st, err := alice.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Submit(ctx, spec); !errors.Is(err, service.ErrRateLimited) {
		t.Errorf("alice's burst overflow = %v, want errors.Is ErrRateLimited", err)
	}
	bst, err := bob.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("bob rejected by alice's bucket: %v", err)
	}
	waitDone(t, d.c, st.ID)
	waitDone(t, d.c, bst.ID)
}

// TestArchiveEndpoints exercises the history query API: list, single
// entry, per-app trends, and the not-found/disabled sentinels.
func TestArchiveEndpoints(t *testing.T) {
	arch := t.TempDir()
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
	ctx := context.Background()
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}

	st, err := d.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fst := waitDone(t, d.c, st.ID)

	list, err := d.c.Archive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Entries != 1 || len(list.Items) != 1 {
		t.Fatalf("archive list = %d entries, %d items; want 1/1", list.Entries, len(list.Items))
	}
	m := list.Items[0]
	if m.Fingerprint != fst.Fingerprint || m.App != "LULESH" || m.Runs != spec.Runs || m.SourceJob != st.ID {
		t.Errorf("archived meta = %+v, want fingerprint %s / LULESH / %d runs / source %s",
			m, fst.Fingerprint, spec.Runs, st.ID)
	}

	rec, err := d.c.ArchiveEntry(ctx, fst.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result == nil || rec.Result.Tally.Total != spec.Runs {
		t.Errorf("archived result tally = %+v, want total %d", rec.Result, spec.Runs)
	}

	trends, err := d.c.ArchiveTrends(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 1 || trends[0].App != "LULESH" || len(trends[0].Points) != 1 {
		t.Fatalf("trends = %+v, want one LULESH series with one point", trends)
	}
	var rateSum float64
	for _, r := range trends[0].Points[0].Rates {
		rateSum += r
	}
	if rateSum < 0.999 || rateSum > 1.001 {
		t.Errorf("trend outcome rates sum to %g, want 1", rateSum)
	}

	if _, err := d.c.ArchiveEntry(ctx, "no-such-fingerprint"); !errors.Is(err, service.ErrNoArchiveEntry) {
		t.Errorf("ArchiveEntry(missing) = %v, want errors.Is ErrNoArchiveEntry", err)
	}

	// A daemon without an archive answers archive queries with the
	// disabled sentinel and omits the capability.
	plain := startDaemon(t, t.TempDir(), service.Config{})
	if _, err := plain.c.Archive(ctx); !errors.Is(err, service.ErrArchiveDisabled) {
		t.Errorf("Archive() without archive = %v, want errors.Is ErrArchiveDisabled", err)
	}
	v, err := plain.c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(v.Capabilities, ","), "archive") {
		t.Errorf("archiveless capabilities %v advertise archive", v.Capabilities)
	}
}
