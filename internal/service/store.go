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
//	job-<id>.partial.json          a shard job's mergeable PartialResult
//	job-<id>.shards.jsonl          a coordinator's shard-completion journal
//	job-<id>.shard-<n>.partial.json  fetched partial of shard n, owned by the journal
//
// Status records are replaced atomically (write temp + rename), so a kill
// mid-update leaves the previous consistent record. The journal is owned by
// the harness and is crash-safe by construction (flushed per record,
// truncated tails tolerated on replay).
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
		name := e.Name()
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, ".result.json") || strings.HasSuffix(name, ".partial.json") {
			continue
		}
		if id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json")); err == nil && id >= s.nextID {
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
	tmp := s.statusPath(st.ID) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	if err := os.Rename(tmp, s.statusPath(st.ID)); err != nil {
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
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") ||
			strings.HasSuffix(name, ".result.json") || strings.HasSuffix(name, ".partial.json") ||
			strings.HasSuffix(name, ".tmp") {
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

// ShardJournalPath is the coordinator's shard-completion journal for one
// job: one JSON line per finished shard, appended after the shard's
// partial is persisted, so a coordinator restart re-dispatches only the
// shards with no journal entry.
func (s *Store) ShardJournalPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".shards.jsonl")
}

// ShardPartialPath is where a coordinator parks the fetched partial of
// one completed shard of job id.
func (s *Store) ShardPartialPath(id string, shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("job-%s.shard-%d.partial.json", id, shard))
}

// SavePartial atomically writes a mergeable partial aggregate to path.
func (s *Store) SavePartial(path string, part *harness.PartialResult) error {
	data, err := json.Marshal(part)
	if err != nil {
		return fmt.Errorf("service: store partial: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store partial: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
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
	tmp := s.resultPath(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store result: %w", err)
	}
	if err := os.Rename(tmp, s.resultPath(id)); err != nil {
		return fmt.Errorf("service: store result: %w", err)
	}
	return nil
}
