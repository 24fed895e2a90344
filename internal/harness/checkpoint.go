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
	// Family and Runs name the campaigns whose resume may start from this
	// journal: those of the same family (key.go) with at least Runs runs.
	// An adaptive campaign's journal names no family: its rounds draw
	// from [0, Runs), so its records are no prefix of a longer campaign's.
	Family string `json:"family,omitempty"`
	Runs   int    `json:"runs,omitempty"`
	// Trace is the campaign or shard span ID active when the journal was
	// created — observability only, never validated on resume (a journal
	// outlives the trace that wrote it).
	Trace string `json:"trace,omitempty"`
}

// journalRecord is one line of the journal: a completed experiment, or
// the header the codec (journalcodec.go) writes instead when one is set.
// Readers skip every line whose kind is not "exp" — among them the "plan"
// lines in which older builds journaled each adaptive round's decision.
type journalRecord struct {
	Kind      string              `json:"kind"`
	Sum       ExperimentSummary   `json:"sum"`
	Points    []trace.Point       `json:"points,omitempty"`
	Spread    []trace.SpreadPoint `json:"spread,omitempty"`
	StructCML map[string]int      `json:"structCML,omitempty"`

	header *journalHeader
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
// A resume from a journal of a shorter campaign of the family (rehead)
// replaces the file with hdr and the kept records in one write, so what
// is appended after them is never filed under another campaign's header.
func openJournal(path string, hdr journalHeader, keep int64, rehead bool) (*journalWriter, error) {
	w := &journalWriter{}
	if keep == 0 || rehead {
		buf, err := appendRecord(nil, &journalRecord{header: &hdr})
		if err != nil {
			return nil, fmt.Errorf("harness: checkpoint header: %w", err)
		}
		if rehead {
			if buf, err = appendRecords(buf, path, keep); err != nil {
				return nil, fmt.Errorf("harness: checkpoint: %w", err)
			}
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

// appendRecords appends to dst the record lines of the journal at path:
// its first keep bytes, less its header line.
func appendRecords(dst []byte, path string, keep int64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < keep {
		return nil, fmt.Errorf("%s shrank below its %d journaled bytes", path, keep)
	}
	data = data[:keep]
	lines := 0
	body, err := durable.ScanLog(bytes.NewReader(data), func([]byte) bool {
		lines++
		return lines == 1
	})
	if err != nil {
		return nil, err
	}
	return append(dst, data[body:]...), nil
}

// write encodes the experiment record rec and hands the line to the OS, so
// a kill after this returns cannot lose it; nothing is written when rec
// does not encode.
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

// readHeader reads a journal's header line, returning the zero header
// when the journal does not exist or its first line is no header (callers
// fall through to readJournal for proper diagnostics).
func readHeader(path string) (journalHeader, error) {
	var hdr journalHeader
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return hdr, nil
	}
	if err != nil {
		return hdr, err
	}
	defer f.Close()
	// A read error leaves hdr zero, which readJournal then diagnoses.
	_, _ = durable.ScanLog(f, func(line []byte) bool {
		hdr, _ = decodeHeader(line)
		return false
	})
	return hdr, nil
}

// JournalRuns returns the run count the header of the journal at path
// names: the length of the campaign that wrote it. It is 0 when the
// journal is absent or unreadable, or predates the field.
func JournalRuns(path string) int {
	hdr, _ := readHeader(path)
	return hdr.Runs
}

// resumes reports whether a campaign whose journal header is want may
// resume from a journal headed hdr: its own, or, when want names a family,
// one of a campaign of that family no longer than want's.
func (want journalHeader) resumes(hdr journalHeader) bool {
	if hdr.Version != JournalVersion {
		return false
	}
	return hdr.Fingerprint == want.Fingerprint ||
		want.Family != "" && hdr.Family == want.Family && hdr.Runs > 0 && hdr.Runs <= want.Runs
}

// readJournal loads the completed-experiment records of a checkpoint
// journal, validating its header against want, the header the campaign
// writes (scanJournal). keep is the byte offset just past the last line
// that decodes and ends in '\n': what a resume keeps of the file before
// appending (openJournal). A torn final line — the signature of a killed
// campaign — lies beyond it and is dropped silently, along with anything
// after it. keep is 0 when no journal exists yet: a resume that starts
// from scratch. rehead reports a journal of a shorter campaign of the
// family, which openJournal files under want before appending to it.
func readJournal(path string, want journalHeader) (recs []journalRecord, keep int64, rehead bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	recs, keep, hdr, err := scanJournal(f, want)
	if err != nil {
		return nil, 0, false, fmt.Errorf("harness: checkpoint %s: %w", path, err)
	}
	return recs, keep, hdr.Fingerprint != want.Fingerprint, nil
}

// scanJournal decodes the journal in r for a campaign whose header is want
// (want.resumes), returning its experiment records, the length of its
// whole lines and its header. A record of an experiment outside
// [0, want.Runs) fails the scan: no campaign of the family that wrote it
// could be this one's prefix.
func scanJournal(r io.Reader, want journalHeader) (recs []journalRecord, keep int64, hdr journalHeader, err error) {
	var (
		hdrErr error
		lines  int
		rec    journalRecord
		stray  = -1
	)
	keep, err = durable.ScanLog(r, func(line []byte) bool {
		if lines++; lines == 1 {
			hdr, hdrErr = decodeHeader(line)
			return hdrErr == nil && want.resumes(hdr)
		}
		if decodeRecord(line, &rec) != nil {
			return false
		}
		if rec.Kind == "exp" {
			if id := rec.Sum.ID; id < 0 || id >= want.Runs {
				stray = id
				return false
			}
			recs = append(recs, rec)
		}
		return true
	})
	switch {
	case err != nil:
	case lines == 0:
		err = errors.New("empty journal")
	case hdrErr != nil:
		err = hdrErr
	case hdr.Version != JournalVersion:
		err = fmt.Errorf("journal version %d, want %d", hdr.Version, JournalVersion)
	case !want.resumes(hdr):
		err = fmt.Errorf("written by a different campaign (%w: journal %s of %d runs, want %s)",
			ErrFingerprintMismatch, hdr.Fingerprint, hdr.Runs, want.Fingerprint)
	case stray >= 0:
		err = fmt.Errorf("journals experiment %d, outside the campaign's [0,%d) (%w)",
			stray, want.Runs, ErrFingerprintMismatch)
	}
	if err != nil {
		return nil, 0, hdr, err
	}
	return recs, keep, hdr, nil
}
