// Package archive is the persistent campaign archive: a disk-backed,
// crash-safe store of completed campaign results keyed by the campaign
// configuration fingerprint. Because campaigns are fully deterministic —
// a fingerprint names exactly one result, byte for byte — the archive
// doubles as a result cache: a repeat submission of an identical
// fingerprint can be served straight from disk and is indistinguishable
// from a fresh run.
//
// Layout: one content-addressed directory per entry under entries/,
// named by the fingerprint, holding
//
//	manifest.json   entry metadata plus per-file checksums
//	result.json     the marshalled campaign result, byte-exact
//	journal.jsonl   the checkpoint journal (optional; absent from entries
//	                older builds made of coordinated jobs, which kept none)
//
// Commits are atomic: an entry is staged under tmp/ — every file written
// and synced — then renamed into entries/ in one step, so a crash mid-Put
// leaves either no entry or a complete one, never a torn one. Reads verify
// the manifest's checksums; any corruption (truncated file, flipped bytes,
// a manifest naming a different fingerprint than its directory) surfaces
// as ErrCorrupt, which callers treat as a cache miss — a damaged archive
// degrades to re-running campaigns, never to serving a wrong result.
package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel errors. Both are "miss" conditions for cache users; ErrCorrupt
// additionally signals that the entry should be evicted so a later Put can
// heal the slot.
var (
	// ErrNotFound: no entry exists for the fingerprint.
	ErrNotFound = errors.New("archive: no entry for fingerprint")
	// ErrCorrupt: an entry exists but failed integrity verification
	// (truncated or modified file, malformed manifest, or a manifest
	// whose fingerprint does not match its directory).
	ErrCorrupt = errors.New("archive: entry is corrupt")
)

// Meta is one entry's manifest metadata: enough to list and summarize
// archived campaigns (per-app trends, FPS over time) without loading the
// full results.
type Meta struct {
	// Fingerprint is the cache key: the campaign configuration
	// fingerprint, extended with any result-shaping knobs the caller
	// folds in (see the service's cache-key derivation).
	Fingerprint string `json:"fingerprint"`
	// Family names the campaigns that differ from this one in their run
	// count alone (harness.CampaignConfig.Family); empty for one whose
	// journal seeds no other campaign (Source).
	Family string `json:"family,omitempty"`
	App    string `json:"app"`
	Runs   int    `json:"runs"`
	Seed   uint64 `json:"seed"`
	// MaxSummaries records the retained-summary cap baked into the
	// archived result (0: all summaries retained).
	MaxSummaries int `json:"maxSummaries,omitempty"`
	// Archived is when the entry was committed.
	Archived time.Time `json:"archived"`
	// SourceJob is the job ID whose completion produced the entry.
	SourceJob string `json:"sourceJob,omitempty"`
	// Tenant is the submitting tenant of the source job.
	Tenant string `json:"tenant,omitempty"`
	Label  string `json:"label,omitempty"`
	// Outcomes counts runs per outcome class; FPS is the fitted fault
	// propagation speed. Both are denormalized from the result so trend
	// queries never load result.json.
	Outcomes map[string]int `json:"outcomes,omitempty"`
	FPS      float64        `json:"fps,omitempty"`
	// JournalVersion is the journal version the result was computed
	// under — the semantics its bytes carry, which the fingerprint does
	// not name; 0 for an entry archived before manifests recorded it.
	JournalVersion int `json:"journalVersion,omitempty"`
	// Strata is the result's per-stratum table, as the result holds it
	// (absent for an unstratified campaign). With Outcomes and FPS it is
	// what a cache hit's status shows, so serving one reads no result.
	Strata json.RawMessage `json:"strata,omitempty"`
}

// manifest is the on-disk manifest.json: the metadata plus integrity
// checksums of every payload file in the entry.
type manifest struct {
	Meta
	// Files maps payload file name to its size and checksum.
	Files map[string]fileSum `json:"files"`
}

// fileSum is one payload file's size and checksum: CRC, or, in an entry
// an older build archived, Sum.
type fileSum struct {
	Bytes int64 `json:"bytes"`
	// CRC is crcSum of the file.
	CRC string `json:"crc,omitempty"`
	// Sum is the file's FNV-64a sum, which older builds wrote instead of
	// CRC; an entry that carries it is verified against it.
	Sum string `json:"sum,omitempty"`
}

// sumOf is the fileSum of data as Put writes it.
func sumOf(data []byte) fileSum {
	return fileSum{Bytes: int64(len(data)), CRC: crcSum(data)}
}

// verifies reports whether data is the file s describes.
func (s fileSum) verifies(data []byte) bool {
	if int64(len(data)) != s.Bytes {
		return false
	}
	if s.CRC != "" {
		return crcSum(data) == s.CRC
	}
	return fnvSum(data) == s.Sum
}

// Record is one verified entry: its metadata and the exact result and
// journal bytes that were archived (Journal is nil when the entry has
// none).
type Record struct {
	Meta    Meta
	Result  []byte
	Journal []byte
}

// The files of an entry; File takes the two payload names.
const (
	manifestFile = "manifest.json"
	ResultFile   = "result.json"
	JournalFile  = "journal.jsonl"
)

// Archive is the handle on one archive directory. It is safe for
// concurrent use by multiple goroutines; concurrent Puts of the same
// fingerprint resolve first-writer-wins (the results are identical by
// determinism, so the loser simply discards its staging copy).
type Archive struct {
	dir     string
	entries string
	tmp     string

	// families indexes the entries that hold a journal by their family,
	// for Source. Open builds it from the manifests; Put and Remove keep
	// it current.
	mu       sync.Mutex
	families map[string][]source
}

// source is one entry of the family index.
type source struct {
	fp            string
	runs, version int
}

// Open opens (creating if needed) the archive rooted at dir and clears
// any staging leftovers from a previous crash.
func Open(dir string) (*Archive, error) {
	a := &Archive{
		dir:     dir,
		entries: filepath.Join(dir, "entries"),
		tmp:     filepath.Join(dir, "tmp"),
	}
	for _, d := range []string{a.entries, a.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("archive: open: %w", err)
		}
	}
	// Staged-but-never-committed entries are garbage from a crash mid-Put;
	// a committed entry is never under tmp/, so this cannot lose data.
	if stale, err := os.ReadDir(a.tmp); err == nil {
		for _, e := range stale {
			os.RemoveAll(filepath.Join(a.tmp, e.Name()))
		}
	}
	a.families = make(map[string][]source)
	dirs, err := os.ReadDir(a.entries)
	if err != nil {
		return nil, fmt.Errorf("archive: open: %w", err)
	}
	for _, d := range dirs {
		// A damaged entry is left out; the submission path evicts it.
		if _, m, err := a.readManifest(d.Name()); err == nil {
			a.index(m)
		}
	}
	return a, nil
}

// index adds m's entry to the family index when it holds a journal.
func (a *Archive) index(m *manifest) {
	if _, ok := m.Files[JournalFile]; !ok || m.Family == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.families[m.Family] = append(a.families[m.Family], source{fp: m.Fingerprint, runs: m.Runs, version: m.JournalVersion})
}

// Source returns the fingerprint and run count of the entry of family
// with the most runs below runs whose journal was archived under journal
// version version: the shorter campaign whose records a campaign of runs
// runs need not execute again. ok is false when there is none. The entry's
// journal is read, and verified, through File.
func (a *Archive) Source(family string, runs, version int) (fp string, srcRuns int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.families[family] {
		if e.version == version && e.runs < runs && e.runs > srcRuns {
			fp, srcRuns, ok = e.fp, e.runs, true
		}
	}
	return fp, srcRuns, ok
}

// Dir returns the archive root directory.
func (a *Archive) Dir() string { return a.dir }

// validFingerprint rejects keys that could escape the entries directory
// or collide with staging names. Campaign fingerprints are short hex
// strings (plus the service's "-maxN" cache-key suffix), so the character
// class is deliberately tight.
func validFingerprint(fp string) error {
	if fp == "" || len(fp) > 128 {
		return fmt.Errorf("archive: invalid fingerprint %q", fp)
	}
	for _, r := range fp {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_':
		default:
			return fmt.Errorf("archive: invalid fingerprint %q", fp)
		}
	}
	return nil
}

func (a *Archive) entryDir(fp string) string { return filepath.Join(a.entries, fp) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSum is a file's 64-bit checksum: its CRC-32C, then its IEEE CRC-32,
// as 16 hex digits. Two CRCs of distinct generator polynomials check as
// many bits as one 64-bit hash, and hash/crc32 computes both with the
// CPU's CRC instructions on amd64 and arm64: the two together about
// fourteen times faster than FNV-64a's byte-serial loop.
func crcSum(data []byte) string {
	return fmt.Sprintf("%08x%08x", crc32.Checksum(data, castagnoli), crc32.ChecksumIEEE(data))
}

// fnvSum is the FNV-64a checksum older builds wrote into manifests.
func fnvSum(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeSynced writes data to path and syncs it, so the subsequent commit
// rename cannot expose a half-written payload after a crash.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Put commits one entry: meta plus the exact result bytes, plus a copy of
// the checkpoint journal at journalPath when one exists (pass "" or a
// missing path for none). An entry that already exists is left untouched
// and Put returns nil — with deterministic campaigns the incumbent bytes
// are the same, and first-writer-wins resolves concurrent Puts without
// tearing either copy.
func (a *Archive) Put(meta Meta, result []byte, journalPath string) error {
	if err := validFingerprint(meta.Fingerprint); err != nil {
		return err
	}
	target := a.entryDir(meta.Fingerprint)
	if _, err := os.Stat(target); err == nil {
		return nil
	}

	stage, err := os.MkdirTemp(a.tmp, meta.Fingerprint+"-*")
	if err != nil {
		return fmt.Errorf("archive: put: %w", err)
	}
	defer os.RemoveAll(stage)

	m := manifest{Meta: meta, Files: map[string]fileSum{ResultFile: sumOf(result)}}
	if err := writeSynced(filepath.Join(stage, ResultFile), result); err != nil {
		return fmt.Errorf("archive: put result: %w", err)
	}
	if journalPath != "" {
		jdata, err := os.ReadFile(journalPath)
		switch {
		case err == nil:
			if err := writeSynced(filepath.Join(stage, JournalFile), jdata); err != nil {
				return fmt.Errorf("archive: put journal: %w", err)
			}
			m.Files[JournalFile] = sumOf(jdata)
		case os.IsNotExist(err):
			// No journal: the entry archives without one and cache hits
			// replay no experiment history.
		default:
			return fmt.Errorf("archive: put journal: %w", err)
		}
	}
	mdata, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("archive: put manifest: %w", err)
	}
	if err := writeSynced(filepath.Join(stage, manifestFile), append(mdata, '\n')); err != nil {
		return fmt.Errorf("archive: put manifest: %w", err)
	}

	if err := os.Rename(stage, target); err != nil {
		// A concurrent Put won the rename; its complete entry stands.
		if _, statErr := os.Stat(target); statErr == nil {
			return nil
		}
		return fmt.Errorf("archive: commit: %w", err)
	}
	a.index(&m)
	return nil
}

// Get loads and verifies one whole entry. ErrNotFound when no entry exists;
// ErrCorrupt when any part of it fails integrity verification (callers
// treat both as a miss, and should Remove a corrupt entry so a later Put
// heals the slot).
func (a *Archive) Get(fp string) (*Record, error) {
	dir, m, err := a.readManifest(fp)
	if err != nil {
		return nil, err
	}
	rec := &Record{Meta: m.Meta}
	if rec.Result, err = m.read(dir, ResultFile); err == nil {
		rec.Journal, err = m.read(dir, JournalFile)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// File loads one payload file of an entry, ResultFile or JournalFile,
// verified against the manifest as Get verifies it — what serving a cache
// hit's result, or its history, reads: neither has a use for the other
// file. A journal the entry was archived without is nil. Errors as for Get.
func (a *Archive) File(fp, name string) ([]byte, error) {
	dir, m, err := a.readManifest(fp)
	if err != nil {
		return nil, err
	}
	return m.read(dir, name)
}

// read returns the payload file the manifest lists under name, checked
// against its recorded length and checksum; any mismatch — truncation,
// growth, or flipped bytes — is ErrCorrupt.
func (m *manifest) read(dir, name string) ([]byte, error) {
	want, ok := m.Files[name]
	if !ok && name == ResultFile {
		return nil, fmt.Errorf("%w: manifest lists no result file", ErrCorrupt)
	}
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s missing", ErrCorrupt, name)
	}
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if !want.verifies(data) {
		return nil, fmt.Errorf("%w: %s fails verification (%d bytes, manifest says %+v)",
			ErrCorrupt, name, len(data), want)
	}
	return data, nil
}

// readManifest loads and parses the manifest of fp's entry, mapping a
// missing entry to ErrNotFound and everything malformed — a manifest that
// names another fingerprint than its directory included — to ErrCorrupt.
func (a *Archive) readManifest(fp string) (dir string, m *manifest, err error) {
	if err := validFingerprint(fp); err != nil {
		return "", nil, err
	}
	dir = a.entryDir(fp)
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		if _, derr := os.Stat(dir); derr == nil {
			// The directory exists but its manifest is gone: a damaged
			// entry, not a clean miss.
			return "", nil, fmt.Errorf("%w: missing manifest", ErrCorrupt)
		}
		return "", nil, ErrNotFound
	}
	if err != nil {
		return "", nil, fmt.Errorf("archive: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return "", nil, fmt.Errorf("%w: malformed manifest: %v", ErrCorrupt, err)
	}
	if m.Fingerprint != fp {
		return "", nil, fmt.Errorf("%w: manifest names fingerprint %s, directory is %s",
			ErrCorrupt, m.Fingerprint, fp)
	}
	return dir, m, nil
}

// Remove deletes one entry (corrupt-entry eviction, or operator cleanup).
// Removing a missing entry is a no-op.
func (a *Archive) Remove(fp string) error {
	if err := validFingerprint(fp); err != nil {
		return err
	}
	a.mu.Lock()
	for family, list := range a.families {
		a.families[family] = slices.DeleteFunc(list, func(e source) bool { return e.fp == fp })
	}
	a.mu.Unlock()
	if err := os.RemoveAll(a.entryDir(fp)); err != nil {
		return fmt.Errorf("archive: remove: %w", err)
	}
	return nil
}

// List returns the metadata of every readable entry, ordered by archive
// time then fingerprint (a stable, replayable order for trend queries).
// Corrupt entries are skipped, not surfaced: listing is a summary view,
// and the submission path owns eviction.
func (a *Archive) List() ([]Meta, error) {
	dirs, err := os.ReadDir(a.entries)
	if err != nil {
		return nil, fmt.Errorf("archive: list: %w", err)
	}
	var out []Meta
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		_, m, err := a.readManifest(d.Name())
		if err != nil {
			continue
		}
		out = append(out, m.Meta)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Archived.Equal(out[j].Archived) {
			return out[i].Archived.Before(out[j].Archived)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}

// Stats walks the archive and returns its entry count and total payload
// bytes (manifest included) — the size gauges exported by the service.
func (a *Archive) Stats() (entries int, bytes int64) {
	dirs, err := os.ReadDir(a.entries)
	if err != nil {
		return 0, 0
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		entries++
		files, err := os.ReadDir(filepath.Join(a.entries, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
	}
	return entries, bytes
}

// String renders a Meta compactly for logs.
func (m Meta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s app=%s runs=%d seed=%d", m.Fingerprint, m.App, m.Runs, m.Seed)
	if m.SourceJob != "" {
		fmt.Fprintf(&b, " job=%s", m.SourceJob)
	}
	return b.String()
}
