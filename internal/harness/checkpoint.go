package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/classify"
	"repro/internal/durable"
	"repro/internal/trace"
)

// The checkpoint journal makes long campaigns restartable: one JSONL file
// holding a header line that fingerprints the campaign configuration,
// followed by one record per completed experiment. A record is exactly what
// the campaign aggregate folds (summary, profile points, spread series,
// per-structure totals), so a resumed campaign folds the replayed records
// into a fresh PartialResult and produces results identical to an
// uninterrupted run.
// The journal is a durable log (internal/durable): created whole with its
// header, then one write per record, so a killed campaign loses at most
// the in-flight line, which a resume cuts off before it appends. What a
// line holds is the codec's business (journalcodec.go); this file only
// calls appendRecord, decodeRecord and decodeReplayed.

// JournalVersion is the version the engine writes into every journal's
// header; an archive entry records the one its result was computed under.
// JournalVersion 2: a rank's failure reaches its peers in logical time,
// as its departure from the job, so a Crashed experiment's casualties —
// and with them its summary's aggregates — differ from version 1's, whose
// peers were stopped by a wall-clock abort flag.
const JournalVersion = 2

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

// journalWriter appends records to the checkpoint file, one write per
// line, each encoded into the buffer the last one used.
type journalWriter struct {
	log *durable.Log
	buf []byte
}

// openJournal opens the checkpoint journal for appending. A resume passes
// keep, the length of the journal's whole lines (readJournal): the file is
// cut there, dropping a torn tail. keep 0 — a fresh campaign, or a resume
// with no journal yet — replaces the file with a new journal holding its
// header alone, so a kill never leaves a journal without a whole header.
func openJournal(path, fingerprint, trace string, keep int64) (*journalWriter, error) {
	w := &journalWriter{}
	if keep == 0 {
		hdr := journalHeader{Kind: "header", Version: JournalVersion, Fingerprint: fingerprint, Trace: trace}
		buf, err := appendRecord(nil, &journalRecord{header: &hdr})
		if err != nil {
			return nil, fmt.Errorf("harness: checkpoint header: %w", err)
		}
		if err := durable.Replace(path, buf); err != nil {
			return nil, fmt.Errorf("harness: checkpoint: %w", err)
		}
		w.buf, keep = buf, int64(len(buf))
	}
	log, err := durable.AppendLog(path, keep)
	if err != nil {
		return nil, fmt.Errorf("harness: checkpoint: %w", err)
	}
	w.log = log
	return w, nil
}

// appendPlan journals one adaptive planner decision, written like every
// experiment record.
func (w *journalWriter) appendPlan(round int, target float64, allocs []roundAlloc, run []int) error {
	return w.write(&journalRecord{plan: &planRecord{Kind: "plan", Round: round, TargetCI: target, Allocs: allocs, Run: run}})
}

// write encodes rec — an experiment record, or the plan it carries — and
// hands the line to the OS, so a kill after this returns cannot lose it;
// nothing is written when rec does not encode.
func (w *journalWriter) write(rec *journalRecord) error {
	buf, err := appendRecord(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf
	_, err = w.log.Write(buf)
	return err
}

func (w *journalWriter) Close() error { return w.log.Close() }

// decodeHeader decodes a journal's first line.
func decodeHeader(line []byte) (journalHeader, error) {
	var hdr journalHeader
	if err := decodeRecord(line, &journalRecord{header: &hdr}); err != nil || hdr.Kind != "header" {
		return hdr, errors.New("malformed header")
	}
	return hdr, nil
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

// journalEvent is what a stream shows of the experiment s summarizes.
func journalEvent(s *ExperimentSummary) JournalEvent {
	return JournalEvent{ID: s.ID, Outcome: s.Outcome, InjRank: s.InjRank,
		InjCycle: s.InjCycle, Fired: s.Fired, MaxCML: s.MaxCML}
}

// ReplayJournal calls fn with every completed experiment of the journal in
// r, in journal order, until fn returns false. It decodes each record's
// kind and summary as readJournal does, keeping none of the rest, and
// does not validate the fingerprint: it serves observability (streaming
// completed experiments to a late subscriber or to a cache hit's watcher),
// not resume, which must go through RunCampaign's guarded path. A
// truncated tail is dropped like readJournal drops it.
func ReplayJournal(r io.Reader, fn func(JournalEvent) bool) error {
	var rec journalRecord
	_, err := durable.ScanLog(r, func(line []byte) bool {
		if decodeReplayed(line, &rec) != nil {
			return false
		}
		if rec.Kind != "exp" {
			return true
		}
		return fn(journalEvent(&rec.Sum))
	})
	if err != nil {
		return fmt.Errorf("harness: checkpoint: %w", err)
	}
	return nil
}

// CurrentJournal reports whether journal, the bytes of a checkpoint journal,
// was written under this build's journal version. Results journaled under
// another version are of another semantics: a cache must not serve them as
// this build's.
func CurrentJournal(journal []byte) bool {
	line, _, _ := bytes.Cut(journal, []byte{'\n'})
	hdr, err := decodeHeader(line)
	return err == nil && hdr.Version == JournalVersion
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
	var fp string
	// A read error leaves fp "", which readJournal then diagnoses.
	_, _ = durable.ScanLog(f, func(line []byte) bool {
		if hdr, err := decodeHeader(line); err == nil {
			fp = hdr.Fingerprint
		}
		return false
	})
	return fp, nil
}

// readJournal loads the completed-experiment records of a checkpoint
// journal, validating the header against the campaign fingerprint. keep is
// the byte offset just past the last line that decodes and ends in '\n':
// what a resume keeps of the file before appending (openJournal). A torn
// final line — the signature of a killed campaign — lies beyond it and is
// dropped silently, along with anything after it. keep is 0 when no
// journal exists yet: a resume that starts from scratch.
func readJournal(path, fingerprint string) (recs []journalRecord, keep int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var (
		hdr    journalHeader
		hdrErr error
		lines  int
		rec    journalRecord
	)
	keep, err = durable.ScanLog(f, func(line []byte) bool {
		if lines++; lines == 1 {
			hdr, hdrErr = decodeHeader(line)
			return hdrErr == nil && hdr.Version == JournalVersion && hdr.Fingerprint == fingerprint
		}
		if decodeRecord(line, &rec) != nil {
			return false
		}
		if rec.Kind == "exp" {
			recs = append(recs, rec)
		}
		return true
	})
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("harness: checkpoint %s: %w", path, err)
	case lines == 0:
		return nil, 0, fmt.Errorf("harness: checkpoint %s: empty journal", path)
	case hdrErr != nil:
		return nil, 0, fmt.Errorf("harness: checkpoint %s: %w", path, hdrErr)
	case hdr.Version != JournalVersion:
		return nil, 0, fmt.Errorf("harness: checkpoint %s: journal version %d, want %d",
			path, hdr.Version, JournalVersion)
	case hdr.Fingerprint != fingerprint:
		return nil, 0, fmt.Errorf(
			"harness: checkpoint %s was written by a different campaign (%w: journal %s, want %s)",
			path, ErrFingerprintMismatch, hdr.Fingerprint, fingerprint)
	}
	return recs, keep, nil
}
