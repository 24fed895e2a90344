package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/harness"
)

// Store persists jobs under one directory so a killed daemon recovers its
// whole queue on restart. Each job owns three files keyed by its numeric
// ID:
//
//	job-<id>.json         the JobStatus record (spec, state, error, tally)
//	job-<id>.ckpt.jsonl   the harness checkpoint journal (completed experiments)
//	job-<id>.result.json  the final CampaignResult, written once on success
//
// A cache-hit job owns the status record alone: its Fingerprint names the
// archive entry that holds the other two.
//
// Shard jobs and coordinated jobs add:
//
//	job-<id>.partial.json            a shard job's mergeable PartialResult
//	job-<id>.shard-<n>.partial.json  fetched partial of shard n: its completion record
//	job-<id>.seed.partial.json       the experiments an archived shorter campaign
//	                                 of the job's family ran, parked before dispatch
//
// Status records, partials and results are replaced whole
// (durable.Replace), so a kill mid-update leaves the previous file and at
// worst a stray temp file, which statusID skips. The checkpoint journal is
// the harness's durable log: written once per record, never synced.
type Store struct {
	dir string

	mu     sync.Mutex
	nextID int
}

// OpenStore opens (creating if needed) the job directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	s := &Store{dir: dir, nextID: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	for _, e := range entries {
		if id, ok := statusID(e.Name()); ok && id >= s.nextID {
			s.nextID = id + 1
		}
	}
	return s, nil
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

// statusID parses a status record's file name, job-<id>.json. Any other
// file — a journal, result, partial, or the temp file a kill inside
// durable.Replace leaves — reports false.
func statusID(name string) (int, bool) {
	rest, isJob := strings.CutPrefix(name, "job-")
	rest, isJSON := strings.CutSuffix(rest, ".json")
	id, err := strconv.Atoi(rest)
	return id, isJob && isJSON && err == nil
}

func (s *Store) statusPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".json")
}

// JournalPath is the harness checkpoint journal for one job.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".ckpt.jsonl")
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".result.json")
}

// SaveStatus atomically replaces the job's status record. Live-only fields
// (Progress) are stripped: they are meaningless across a restart.
func (s *Store) SaveStatus(st JobStatus) error {
	st.Progress = nil
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	if err := durable.Replace(s.statusPath(st.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return nil
}

// LoadAll reads every job status record, sorted by numeric ID (submission
// order).
func (s *Store) LoadAll() ([]JobStatus, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	var jobs []JobStatus
	for _, e := range entries {
		name := e.Name()
		if _, ok := statusID(name); !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("service: store: %w", err)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("service: store: %s: %w", name, err)
		}
		jobs = append(jobs, st)
	}
	sort.Slice(jobs, func(i, j int) bool {
		a, _ := strconv.Atoi(jobs[i].ID)
		b, _ := strconv.Atoi(jobs[j].ID)
		return a < b
	})
	return jobs, nil
}

func (s *Store) partialPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".partial.json")
}

// ShardPartialPath is where a coordinator parks the fetched partial of
// one completed shard of job id: the shard's completion record, so a
// coordinator restart re-dispatches only the shards with none.
func (s *Store) ShardPartialPath(id string, shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("job-%s.shard-%d.partial.json", id, shard))
}

// SeedPartialPath is where a coordinator parks the seed of a job, the
// partial its shards merge with, before it dispatches any of them.
func (s *Store) SeedPartialPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".seed.partial.json")
}

// SeedJournal starts a job's checkpoint journal as journal, the journal of
// a shorter campaign of its family, which the job's resume continues.
func (s *Store) SeedJournal(id string, journal []byte) error {
	if err := durable.Replace(s.JournalPath(id), journal); err != nil {
		return fmt.Errorf("service: seed journal: %w", err)
	}
	return nil
}

// SavePartial atomically writes a mergeable partial aggregate to path.
func (s *Store) SavePartial(path string, part *harness.PartialResult) error {
	data, err := json.Marshal(part)
	if err != nil {
		return fmt.Errorf("service: store partial: %w", err)
	}
	if err := durable.Replace(path, data); err != nil {
		return fmt.Errorf("service: store partial: %w", err)
	}
	return nil
}

// LoadPartial reads a partial aggregate from path. os.IsNotExist(err)
// when none was stored.
func (s *Store) LoadPartial(path string) (*harness.PartialResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var part harness.PartialResult
	if err := json.Unmarshal(data, &part); err != nil {
		return nil, fmt.Errorf("service: store partial %s: %w", path, err)
	}
	return &part, nil
}

// SaveResultBytes atomically writes a done job's marshalled result — the
// same bytes the archive commits and GET result serves.
func (s *Store) SaveResultBytes(id string, data []byte) error {
	if err := durable.Replace(s.resultPath(id), data); err != nil {
		return fmt.Errorf("service: store result: %w", err)
	}
	return nil
}
