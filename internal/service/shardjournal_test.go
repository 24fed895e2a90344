package service

import (
	"os"
	"testing"

	"repro/internal/harness"
)

// TestShardJournalTornTail: a coordinator killed mid-write leaves a torn
// last line in the shard journal. The next coordinator run cuts it off
// before appending, so the shards it records after the tear load on the
// run after that instead of being lost behind the torn line.
func TestShardJournalTornTail(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{store: store}
	const job, fp = "torn", "fp"
	part := &harness.PartialResult{Fingerprint: fp}
	record := func(j *shardJournal, shard int) {
		t.Helper()
		rec := shardJournalRecord{Shard: shard, Worker: "w", Path: store.ShardPartialPath(job, shard)}
		if err := j.record(rec, part); err != nil {
			t.Fatal(err)
		}
	}

	saved, keep := s.replayShardPartials(job, fp)
	j, err := s.appendShardJournal(job, keep)
	if err != nil {
		t.Fatal(err)
	}
	record(j, 0)
	j.close()
	f, err := os.OpenFile(store.ShardJournalPath(job), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":1,"worker":"w","pa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	saved, keep = s.replayShardPartials(job, fp)
	if len(saved) != 1 || saved[0] == nil {
		t.Fatalf("replay before the restart loaded shards %v, want [0]", shardKeys(saved))
	}
	j, err = s.appendShardJournal(job, keep)
	if err != nil {
		t.Fatal(err)
	}
	record(j, 1)
	record(j, 2)
	j.close()

	saved, _ = s.replayShardPartials(job, fp)
	for _, shard := range []int{0, 1, 2} {
		if saved[shard] == nil {
			t.Errorf("shard %d recorded but not loaded after the restart; loaded %v", shard, shardKeys(saved))
		}
	}
}

func shardKeys(m map[int]*harness.PartialResult) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
