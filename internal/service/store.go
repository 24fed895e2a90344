package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/durable"
)

// Store persists jobs under one directory so a killed daemon recovers its
// whole queue on restart. Its files:
//
//	status.jsonl          the status log: one JobStatus record (spec, state,
//	                      error, tally) per line, appended at every change of
//	                      a job's status; a job's last whole record is its status
//	job-<id>.ckpt.jsonl   the harness checkpoint journal (completed experiments)
//	job-<id>.result.json  the final CampaignResult, written once on success
//
// Every kind of job keeps these: a shard job's journal is what its
// coordinator folds, and a coordinated job's journal holds the records its
// shards' journals folded into it. A cache-hit job owns its status records
// alone: its Fingerprint names the archive entry that holds the other two.
//
// The status log and the checkpoint journals are durable logs, written
// one whole line at a time and never synced: a kill leaves at most a torn
// last line, which a restart drops. Results are replaced whole (durable.Replace), so a kill mid-update leaves the previous file
// and at worst a stray temp file. A starting daemon (Recover) rewrites the
// status log to one record per job when it holds more, and folds in the
// per-job status files older builds kept in the directory, which it then
// removes.
type Store struct {
	dir string

	mu     sync.Mutex
	nextID int
	log    *durable.Log // the status log, open from Recover until Close
}

// statusLog names the status log in the store directory.
const statusLog = "status.jsonl"

// OpenStore opens (creating if needed) the job directory. It only reads:
// the status log is opened for appending by Recover.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	r, err := replay(dir)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, nextID: r.nextID}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// NewID allocates the next job ID.
func (s *Store) NewID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return strconv.Itoa(id)
}

// legacyID parses the name of a status file of the per-job layout older
// builds wrote, job-<id>.json, or of the temp file a kill inside its
// durable.Replace left (tmp). Any other file — a journal or a result —
// reports false.
func legacyID(name string) (id int, tmp, ok bool) {
	name, tmp = strings.CutSuffix(name, durable.TempSuffix)
	rest, isJob := strings.CutPrefix(name, "job-")
	rest, isJSON := strings.CutSuffix(rest, ".json")
	id, err := strconv.Atoi(rest)
	return id, tmp, isJob && isJSON && err == nil
}

// JournalPath is the harness checkpoint journal for one job.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".ckpt.jsonl")
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".result.json")
}

// appendStatus appends st's status record, one compact JSON line, to dst.
// Progress is kept only on a done status, whose last snapshot no longer
// changes; a live one is meaningless across a restart.
func appendStatus(dst []byte, st JobStatus) ([]byte, error) {
	if st.State != StateDone {
		st.Progress = nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		return dst, fmt.Errorf("service: store: %w", err)
	}
	return append(append(dst, data...), '\n'), nil
}

// SaveStatus appends the job's status record to the status log.
func (s *Store) SaveStatus(st JobStatus) error {
	line, err := appendStatus(nil, st)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("service: store: status log is not open")
	}
	if _, err := s.log.Write(line); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return nil
}

// LoadAll reads every job's status, sorted by numeric ID (submission
// order).
func (s *Store) LoadAll() ([]JobStatus, error) {
	r, err := replay(s.dir)
	return r.jobs, err
}

// Recover replays the store for a starting daemon, edits each job with
// requeue (which reports whether it changed the job), and opens the status
// log for appending. The log is rewritten — one record per job, edits
// included, in one durable.Replace — only when it is not that already: it
// holds a superseded record or a torn tail, requeue changed a job, or
// status files of the older per-job layout remain, which are folded in
// and then removed. A kill before the rewrite lands leaves the store as
// it was; one after it, at worst legacy files that the log supersedes.
func (s *Store) Recover(requeue func(*JobStatus) bool) ([]JobStatus, error) {
	r, err := replay(s.dir)
	if err != nil {
		return nil, err
	}
	rewrite := !r.compact
	for i := range r.jobs {
		if requeue(&r.jobs[i]) {
			rewrite = true
		}
	}
	path := filepath.Join(s.dir, statusLog)
	keep := r.keep
	if rewrite {
		var buf []byte
		for _, st := range r.jobs {
			if buf, err = appendStatus(buf, st); err != nil {
				return nil, err
			}
		}
		if err := durable.Replace(path, buf); err != nil {
			return nil, fmt.Errorf("service: store: %w", err)
		}
		for _, name := range r.legacy {
			if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("service: store: %w", err)
			}
		}
		keep = int64(len(buf))
	}
	log, err := durable.AppendLog(path, keep)
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	s.mu.Lock()
	s.log = log
	s.mu.Unlock()
	return r.jobs, nil
}

// Close closes the status log; SaveStatus fails from then on. Closing a
// closed store is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// replayed is what a store directory holds: every job's status, in ID
// order, and what Recover needs to know of the files it came from.
type replayed struct {
	jobs   []JobStatus
	nextID int
	// keep is the length of the status log's whole records.
	keep int64
	// compact: the log is exactly one whole record per job, and no
	// legacy file remains.
	compact bool
	// legacy lists the per-job status files of the older layout, and
	// their stray temp files.
	legacy []string
}

// replay reads the store in dir: the older layout's status files first,
// then the status log, each job's last record winning. A log line that
// does not decode is a torn tail and ends the log.
func replay(dir string) (replayed, error) {
	r := replayed{nextID: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return r, fmt.Errorf("service: store: %w", err)
	}
	last := make(map[int]JobStatus)
	for _, e := range entries {
		id, tmp, ok := legacyID(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r.legacy = append(r.legacy, path)
		if tmp {
			continue // neither a job nor an ID
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return r, fmt.Errorf("service: store: %w", err)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return r, fmt.Errorf("service: store: %s: %w", e.Name(), err)
		}
		last[id] = st
	}
	data, err := os.ReadFile(filepath.Join(dir, statusLog))
	if err != nil && !os.IsNotExist(err) {
		return r, fmt.Errorf("service: store: %w", err)
	}
	records := 0
	r.keep, err = durable.ScanLog(bytes.NewReader(data), func(line []byte) bool {
		var st JobStatus
		if json.Unmarshal(line, &st) != nil {
			return false
		}
		id, err := strconv.Atoi(st.ID)
		if err != nil {
			return false
		}
		records++
		last[id] = st
		return true
	})
	if err != nil {
		return r, fmt.Errorf("service: store: %w", err)
	}
	r.compact = len(r.legacy) == 0 && r.keep == int64(len(data)) && records == len(last)
	ids := make([]int, 0, len(last))
	for id := range last {
		ids = append(ids, id)
		r.nextID = max(r.nextID, id+1)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r.jobs = append(r.jobs, last[id])
	}
	return r, nil
}

// SaveResultBytes atomically writes a done job's marshalled result — the
// same bytes the archive commits and GET result serves.
func (s *Store) SaveResultBytes(id string, data []byte) error {
	if err := durable.Replace(s.resultPath(id), data); err != nil {
		return fmt.Errorf("service: store result: %w", err)
	}
	return nil
}
