package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestArchiveKeysPinned pins the archive key a submission is filed under,
// as it reaches the wire in JobStatus.Fingerprint: the campaign
// fingerprint, suffixed by the one retention field that shapes a stored
// result. The values were measured before the key had one home.
func TestArchiveKeysPinned(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	base := service.JobSpec{App: "LULESH", Scale: "test", Runs: 40, Seed: 7}
	sites := base
	sites.Sampling = &service.SamplingSpec{Sites: true}
	for _, tc := range []struct {
		name string
		spec service.JobSpec
		max  int
		want string
	}{
		{"fixed", base, 0, "64fdd2fe141fad53"},
		{"fixed MaxSummaries 5", base, 5, "64fdd2fe141fad53-max5"},
		{"sites MaxSummaries 5", sites, 5, "f343d28d728573b5-max5"},
	} {
		spec := tc.spec
		spec.MaxSummaries = tc.max
		st, err := d.c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Fingerprint != tc.want {
			t.Errorf("%s: archive key %s, want %s", tc.name, st.Fingerprint, tc.want)
		}
		waitDone(t, d.c, st.ID)
	}
}

// TestMetricsWirePinned pins what faultpropd's metrics look like on the
// wire after one local job and one 2-shard job whose partials the
// coordinator absorbed: every Prometheus family of /metrics with its type
// and label sets, the keys of the /v1/metrics document, and the restore
// bytes and golden exits the two jobs add up to.
func TestMetricsWirePinned(t *testing.T) {
	_, urls := startWorkerFleet(t, 2)
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond,
		Heartbeat:     100 * time.Millisecond,
		Peers:         urls,
	})
	ctx := context.Background()
	for _, spec := range []service.JobSpec{
		{App: "LULESH", Scale: "test", Runs: 12, Seed: 5, SampleEvery: 64, Snapshots: 64},
		{App: "LULESH", Scale: "test", Runs: 12, Seed: 6, SampleEvery: 64, Snapshots: 64, Shards: 2},
	} {
		st, err := coord.c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, coord.c, st.ID); final.State != service.StateDone {
			t.Fatalf("job %s settled as %s: %s", st.ID, final.State, final.Error)
		}
	}

	resp, err := http.Get(coord.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"faultpropd_restore_bytes_total 110400\n", "faultpropd_golden_exits_total 5\n"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics lacks the series %q", series)
		}
	}
	// Each series is one line: family, type, labels other than le.
	types := map[string]string{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			seen[name+" "+typ] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		if types[name] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					name = base
				}
			}
		}
		var keep []string
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if l != "" && !strings.HasPrefix(l, "le=") {
				keep = append(keep, l)
			}
		}
		seen[name+" "+types[name]+" {"+strings.Join(keep, ",")+"}"] = true
	}
	var got []string
	for s := range seen {
		got = append(got, s)
	}
	sort.Strings(got)
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_wire.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("/metrics families drifted; got:\n%s", g)
	}

	resp, err = http.Get(coord.http.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := "archiveBytes archiveEntries cacheHits cacheMisses goldenExits jobSlots jobs jobsCancelled " +
		"jobsDone jobsFailed outcomes queueDepth restoreBytes runningJobs runsPerSec streamDrops " +
		"utilization workerPool workersBusy"
	if g := strings.Join(keys, " "); g != wantKeys {
		t.Errorf("/v1/metrics keys drifted:\n got %s\nwant %s", g, wantKeys)
	}
	m, err := coord.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RestoreBytes != 110400 || m.GoldenExits != 5 {
		t.Errorf("restoreBytes %d, goldenExits %d; want %d and %d", m.RestoreBytes, m.GoldenExits, 110400, 5)
	}
}
