package harness

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/classify"
	"repro/internal/trace"
)

// The checkpoint journal makes long campaigns restartable: one JSONL file
// holding a header line that fingerprints the campaign configuration,
// followed by one record per completed experiment. A record is exactly what
// the campaign aggregate folds (summary, profile points, spread series,
// per-structure totals), so a resumed campaign folds the replayed records
// into a fresh PartialResult and produces results identical to an
// uninterrupted run.
// Every record reaches the OS as one write: a killed campaign loses at most
// the in-flight line, and a resume cuts that torn tail off before it
// appends (readJournal, openJournal). What a
// line holds is the codec's business (journalcodec.go); this file only
// calls appendRecord and decodeRecord.

const journalVersion = 1

type journalHeader struct {
	Kind        string `json:"kind"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Trace is the campaign or shard span ID active when the journal was
	// created — observability only, never validated on resume (a journal
	// outlives the trace that wrote it).
	Trace string `json:"trace,omitempty"`
}

// journalRecord is one line of the journal: a completed experiment, or
// the header or plan payload the codec (journalcodec.go) writes instead
// when one is set.
type journalRecord struct {
	Kind      string              `json:"kind"`
	Sum       ExperimentSummary   `json:"sum"`
	Points    []trace.Point       `json:"points,omitempty"`
	Spread    []trace.SpreadPoint `json:"spread,omitempty"`
	StructCML map[string]int      `json:"structCML,omitempty"`

	header *journalHeader
	plan   *planRecord
}

// planRecord journals one adaptive planner decision: the round number, the
// per-stratum allocation, and the IDs actually dispatched (allocated minus
// journal-replayed). Audit and test material — resume re-derives decisions
// from the replayed experiments — and invisible to pre-adaptive readers,
// which skip every record whose kind is not "exp".
type planRecord struct {
	Kind     string       `json:"kind"` // "plan"
	Round    int          `json:"round"`
	TargetCI float64      `json:"targetCI"`
	Allocs   []roundAlloc `json:"allocs"`
	Run      []int        `json:"run"`
}

// ErrFingerprintMismatch reports a checkpoint journal, shard spec, or
// partial result that belongs to a different campaign configuration than
// the one in hand. Match it with errors.Is.
var ErrFingerprintMismatch = errors.New("campaign fingerprint mismatch")

// Fingerprint hashes the configuration fields that determine
// per-experiment results. It binds checkpoint journals, shard specs, and
// partial results to their campaign: merging or resuming under a different
// seed, workload, or fault model is refused rather than silently mixing
// incompatible experiments. Zero-value defaults that are result-
// determining (HangFactor) are normalized first, so the fingerprint of a
// config equals the fingerprint of the campaign it runs.
func (cfg CampaignConfig) Fingerprint() string {
	if cfg.HangFactor == 0 {
		cfg.HangFactor = 4
	}
	if cfg.Strata == 0 {
		cfg.Strata = cfg.Sampling.phases()
	}
	return cfg.fingerprint()
}

// fingerprint hashes the configuration fields that determine per-experiment
// results, binding a journal to its campaign: resuming under a different
// seed, workload, or fault model is refused rather than silently mixing
// incompatible experiments. Fields that only shape aggregation or
// scheduling (Workers, KeepProfiles, MaxSummaries, StopAfter) are excluded.
// Sampling-policy fields (TargetCI, Strata) are appended only when set, so
// every pre-existing fixed-N configuration keeps the fingerprint it had
// before the policy existed and its journals stay resumable.
func (cfg CampaignConfig) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "app=%s|params=%+v|runs=%d|seed=%d|lambda=%g|hang=%g|sample=%d",
		cfg.App.Name(), cfg.Params, cfg.Runs, cfg.Seed,
		cfg.MultiFaultLambda, cfg.HangFactor, cfg.SampleEvery)
	if cfg.stratified() {
		fmt.Fprintf(h, "|ci=%g|strata=%d", cfg.TargetCI, cfg.Strata)
	}
	// Append-only-when-set, like the adaptive suffix: configurations
	// without per-site analytics or protection keep their historical
	// fingerprints, so existing journals and archive entries stay valid.
	if cfg.Sites {
		fmt.Fprintf(h, "|sites=1")
	}
	if len(cfg.Protect) > 0 {
		fmt.Fprintf(h, "|protect=%s", protectKey(cfg.Protect))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// protectKey condenses a protection site list into a stable hash token,
// used both in the fingerprint and as the snapshot-pack cache
// discriminator.
func protectKey(protect []int) string {
	if len(protect) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, s := range protect {
		fmt.Fprintf(h, "%d,", s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalFingerprint derives the checkpoint-journal fingerprint for one
// shard: the campaign fingerprint plus the shard's ID range, so a shard
// cannot resume from a sibling's journal. Full-range runs keep the bare
// campaign fingerprint — journals written before sharding existed stay
// resumable.
func journalFingerprint(campaignFP string, spec ShardSpec) string {
	if len(spec.IDs) > 0 {
		h := fnv.New64a()
		for _, id := range spec.IDs {
			fmt.Fprintf(h, "%d,", id)
		}
		return fmt.Sprintf("%s|ids=%016x", campaignFP, h.Sum64())
	}
	if spec.From == 0 && spec.To == spec.Runs {
		return campaignFP
	}
	return fmt.Sprintf("%s|shard=%d-%d", campaignFP, spec.From, spec.To)
}

// journalWriter appends records to the checkpoint file, one write per
// line, each encoded into the buffer the last one used.
type journalWriter struct {
	f   *os.File
	buf []byte
}

// openJournal opens the checkpoint journal for writing. A resume passes
// keep, the length of the journal's whole lines (readJournal): the file is
// cut there, dropping a torn tail, and appended to. keep 0 — a fresh
// campaign, or a resume with no journal yet — starts a new journal with
// its header.
func openJournal(path, fingerprint, trace string, keep int64) (*journalWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if keep == 0 {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	if keep > 0 {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: checkpoint: %w", err)
		}
	}
	w := &journalWriter{f: f}
	if keep == 0 {
		hdr := journalHeader{Kind: "header", Version: journalVersion, Fingerprint: fingerprint, Trace: trace}
		if err := w.write(&journalRecord{header: &hdr}); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: checkpoint header: %w", err)
		}
	}
	return w, nil
}

// appendPlan journals one adaptive planner decision, written like every
// experiment record.
func (w *journalWriter) appendPlan(round int, target float64, allocs []roundAlloc, run []int) error {
	return w.write(&journalRecord{plan: &planRecord{Kind: "plan", Round: round, TargetCI: target, Allocs: allocs, Run: run}})
}

// write encodes rec — an experiment record, or the header or plan it
// carries — and hands the line to the OS, so a kill after this returns
// cannot lose it; nothing is written when rec does not encode.
func (w *journalWriter) write(rec *journalRecord) error {
	buf, err := appendRecord(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf
	_, err = w.f.Write(buf)
	return err
}

func (w *journalWriter) Close() error { return w.f.Close() }

// journalScanner is the one reader of the journal's line format; resume
// (readJournal), the adaptive-resume diagnosis (journalHeaderFP) and event
// replay (ReplayJournal) all sit on it. A record line may reach 256 MiB;
// the line buffer grows on demand, so a journal of short lines costs no
// more than its longest one.
type journalScanner struct {
	*bufio.Scanner
	// end is the byte offset just past the current line, and whole
	// whether that line ends in '\n'.
	end   int64
	whole bool
}

func newJournalScanner(r io.Reader) *journalScanner {
	s := &journalScanner{Scanner: bufio.NewScanner(r)}
	s.Buffer(nil, 256<<20)
	s.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		n, line, err := bufio.ScanLines(data, atEOF)
		if n > 0 {
			s.end += int64(n)
			s.whole = data[n-1] == '\n'
		}
		return n, line, err
	})
	return s
}

// header decodes the journal's first line.
func (s *journalScanner) header() (journalHeader, error) {
	var hdr journalHeader
	if !s.Scan() {
		return hdr, errors.New("empty journal")
	}
	if err := decodeRecord(s.Bytes(), &journalRecord{header: &hdr}); err != nil || hdr.Kind != "header" {
		return hdr, errors.New("malformed header")
	}
	return hdr, nil
}

// next decodes the next non-blank line into rec. It returns false at the
// end of the journal, at a last line that does not end in '\n' and at a
// line that does not decode: the torn tail a killed campaign leaves,
// dropped silently together with anything after it.
func (s *journalScanner) next(rec *journalRecord) bool {
	for s.Scan() && s.whole {
		if line := bytes.TrimSpace(s.Bytes()); len(line) > 0 {
			return decodeRecord(line, rec) == nil
		}
	}
	return false
}

// JournalEvent is what an event stream shows of one journaled experiment:
// the ExperimentSummary fields of that name, and no others.
type JournalEvent struct {
	ID       int
	Outcome  classify.Outcome
	InjRank  int
	InjCycle uint64
	Fired    bool
	MaxCML   int
}

// ReplayJournal calls fn with every completed experiment of the journal in
// r, in journal order, until fn returns false. It decodes each record as
// readJournal does and does not validate the fingerprint: it serves
// observability (streaming completed experiments to a late subscriber),
// not resume, which must go through RunCampaign's guarded path. A
// truncated tail is dropped like readJournal drops it.
func ReplayJournal(r io.Reader, fn func(JournalEvent) bool) error {
	js := newJournalScanner(r)
	var rec journalRecord
	for js.next(&rec) {
		if rec.Kind != "exp" {
			continue
		}
		s := &rec.Sum
		if !fn(JournalEvent{ID: s.ID, Outcome: s.Outcome, InjRank: s.InjRank,
			InjCycle: s.InjCycle, Fired: s.Fired, MaxCML: s.MaxCML}) {
			return nil
		}
	}
	if err := js.Err(); err != nil {
		return fmt.Errorf("harness: checkpoint: %w", err)
	}
	return nil
}

// journalHeaderFP reads just the fingerprint of a journal's header line,
// returning "" when the journal does not exist or is unparseable (callers
// fall through to readJournal for proper diagnostics).
func journalHeaderFP(path string) (string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	defer f.Close()
	hdr, err := newJournalScanner(f).header()
	if err != nil {
		return "", nil
	}
	return hdr.Fingerprint, nil
}

// readJournal loads the completed-experiment records of a checkpoint
// journal, validating the header against the campaign fingerprint. keep is
// the byte offset just past the last line that decodes and ends in '\n':
// what a resume keeps of the file before appending (openJournal). A torn
// final line — the signature of a killed campaign — lies beyond it and is
// dropped silently, along with anything after it. keep is 0 when no
// journal exists yet (a resume that starts from scratch), or when not even
// its header is a whole line.
func readJournal(path, fingerprint string) (recs []journalRecord, keep int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	js := newJournalScanner(f)
	hdr, err := js.header()
	if err != nil {
		return nil, 0, fmt.Errorf("harness: checkpoint %s: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, 0, fmt.Errorf("harness: checkpoint %s: journal version %d, want %d",
			path, hdr.Version, journalVersion)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, 0, fmt.Errorf(
			"harness: checkpoint %s was written by a different campaign (%w: journal %s, want %s)",
			path, ErrFingerprintMismatch, hdr.Fingerprint, fingerprint)
	}
	if js.whole {
		keep = js.end
	}
	var rec journalRecord
	for js.next(&rec) {
		keep = js.end
		if rec.Kind == "exp" {
			recs = append(recs, rec)
		}
	}
	if err := js.Err(); err != nil {
		return nil, 0, fmt.Errorf("harness: checkpoint %s: %w", path, err)
	}
	return recs, keep, nil
}
