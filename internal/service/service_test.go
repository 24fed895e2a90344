package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/durable"
	"repro/internal/harness"
	"repro/internal/service"
)

// testDaemon is one running service instance over a store directory, with
// a client pointed at it.
type testDaemon struct {
	srv  *service.Server
	http *httptest.Server
	c    *service.Client
}

func startDaemon(t *testing.T, dir string, cfg service.Config) *testDaemon {
	t.Helper()
	cfg.Dir = dir
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 20 * time.Millisecond
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	c, err := service.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := &testDaemon{srv: srv, http: hs, c: c}
	t.Cleanup(func() { d.stop(t) })
	return d
}

// stop drains and closes; safe to call twice.
func (d *testDaemon) stop(t *testing.T) {
	t.Helper()
	if d.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	d.http.Close()
	d.http = nil
}

// waitDone polls until the job settles, failing the test on timeout.
func waitDone(t *testing.T, c *service.Client, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return service.JobStatus{}
}

// assertSameCampaign requires the service-produced result to match a local
// run in every determinism-bearing aggregate: tally, experiments, and the
// propagation model (FPS and per-run fits).
func assertSameCampaign(t *testing.T, label string, local, remote *harness.CampaignResult) {
	t.Helper()
	if !reflect.DeepEqual(local.Tally, remote.Tally) {
		t.Errorf("%s: tally differs: %v vs %v", label, local.Tally, remote.Tally)
	}
	if !reflect.DeepEqual(local.Model, remote.Model) {
		t.Errorf("%s: model differs: FPS %v vs %v (%d vs %d fits)", label,
			local.Model.FPS, remote.Model.FPS, len(local.Model.Fits), len(remote.Model.Fits))
	}
	if !reflect.DeepEqual(local.Experiments, remote.Experiments) {
		t.Errorf("%s: experiments differ (%d vs %d)", label, len(local.Experiments), len(remote.Experiments))
	}
	if !reflect.DeepEqual(local.StructTotals, remote.StructTotals) {
		t.Errorf("%s: struct totals differ", label)
	}
}

// TestTransportDeterminism is the acceptance gate for the service: a fixed
// seed must yield identical tallies, experiments, and FPS fits whether the
// campaign runs locally or through the daemon (submit + stream + fetch via
// the typed client), and the tally streamed in the final result event must
// agree with both.
func TestTransportDeterminism(t *testing.T) {
	app := apps.NewHydro()
	// The daemon job runs in snapshot-fork mode while the local reference
	// re-executes every experiment: Snapshots is a performance strategy
	// only, so the transport gate doubles as the cross-mode differential.
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64, Snapshots: 3}

	local, err := harness.RunCampaign(harness.CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: harness.Sampling{Runs: spec.Runs, Seed: spec.Seed}, Execution: harness.Execution{SampleEvery: spec.SampleEvery},
	})
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1})
	var streamed *service.Event
	experiments := 0
	remote, _, err := d.c.Run(context.Background(), spec, func(ev service.Event) error {
		switch ev.Kind {
		case service.EventExperiment:
			experiments++
		case service.EventResult:
			e := ev
			streamed = &e
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "local vs daemon", local, remote)
	if experiments != spec.Runs {
		t.Errorf("stream carried %d experiment events, want %d", experiments, spec.Runs)
	}
	if streamed == nil || streamed.Tally == nil {
		t.Fatal("stream ended without a result event")
	}
	if !reflect.DeepEqual(*streamed.Tally, local.Tally) {
		t.Errorf("streamed tally %v differs from local %v", *streamed.Tally, local.Tally)
	}
	if streamed.FPS != local.Model.FPS {
		t.Errorf("streamed FPS %v differs from local %v", streamed.FPS, local.Model.FPS)
	}

	// A watcher attaching after completion replays the full experiment
	// history from the journal before the terminal event.
	jobs, err := d.c.Jobs(context.Background())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("job list: %v (%d jobs)", err, len(jobs))
	}
	replayed := 0
	final, err := d.c.Watch(context.Background(), jobs[0].ID, func(ev service.Event) error {
		if ev.Kind == service.EventExperiment {
			if !ev.Experiment.Resumed {
				t.Errorf("experiment %d replayed to a late watcher without the resumed flag", ev.Experiment.ID)
			}
			replayed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Errorf("late watch settled as %s", final.State)
	}
	if replayed != spec.Runs {
		t.Errorf("late watcher replayed %d experiments, want %d", replayed, spec.Runs)
	}
}

// TestDaemonKillRestartResumes drains the daemon mid-campaign (the SIGTERM
// path), restarts it over the same store, and requires (a) the job resumes
// from its journal without re-running completed experiments, (b) the final
// result is identical to an uninterrupted local run — the kill+restart leg
// of the transport-determinism acceptance criterion.
func TestDaemonKillRestartResumes(t *testing.T) {
	dir := t.TempDir()
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 60, Seed: 42, SampleEvery: 64}

	d1 := startDaemon(t, dir, service.Config{JobSlots: 1, WorkerPool: 1})
	st, err := d1.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a handful of journaled experiments, then pull the plug.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := d1.c.Job(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress != nil && cur.Progress.Done >= 5 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job settled as %s before the daemon could be killed; raise Runs", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started making progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.stop(t)

	// What kills leave behind: stray temp files, as a kill inside an
	// older build's status write left them — one beside the job's record,
	// one for a job whose first record never landed — and a torn half of
	// a status record, of a job whose first record never landed, at the
	// end of the status log. None of them is a job, and none takes a job
	// ID.
	log := filepath.Join(dir, "status.jsonl")
	lines := bytes.Split(bytes.TrimSuffix(mustRead(t, log), []byte("\n")), []byte("\n"))
	record := lines[len(lines)-1]
	id, _ := strconv.Atoi(st.ID)
	for _, stray := range []string{"job-" + st.ID + ".json", fmt.Sprintf("job-%d.json", id+5)} {
		if err := os.WriteFile(filepath.Join(dir, stray+durable.TempSuffix), record[:len(record)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := bytes.Replace(record, []byte(`"id":"`+st.ID+`"`), []byte(fmt.Sprintf(`"id":"%d"`, id+7)), 1)
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.Write(torn[:len(torn)/2])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	// The interrupted job must be persisted as queued, not lost.
	d2 := startDaemon(t, dir, service.Config{JobSlots: 1})
	final := waitDone(t, d2.c, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("restarted job settled as %s (%s), want done", final.State, final.Error)
	}
	if final.Resumed == 0 {
		t.Error("restarted job re-ran every experiment instead of resuming from its journal")
	}
	if final.Resumed >= spec.Runs {
		t.Errorf("resumed %d of %d experiments: nothing was left to run after the kill", final.Resumed, spec.Runs)
	}
	if jobs, err := d2.c.Jobs(context.Background()); err != nil || len(jobs) != 1 {
		t.Errorf("the restarted daemon lists %d jobs (err %v), want the one submitted", len(jobs), err)
	}
	reopened, err := service.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next := reopened.NewID(); next != strconv.Itoa(id+1) {
		t.Errorf("the store's next job ID is %s, want %d", next, id+1)
	}

	remote, err := d2.c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewHydro()
	local, err := harness.RunCampaign(harness.CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: harness.Sampling{Runs: spec.Runs, Seed: spec.Seed}, Execution: harness.Execution{SampleEvery: spec.SampleEvery},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "kill+restart vs local", local, remote)
}

// TestMetricsUnderConcurrentJobs submits two jobs onto two slots plus one
// that must queue, and requires /metrics to report the queue depth,
// per-job progress, and per-outcome counts while both slots are busy.
func TestMetricsUnderConcurrentJobs(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 2, WorkerPool: 2})
	ctx := context.Background()
	a, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 120, Seed: 1, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.c.Submit(ctx, service.JobSpec{App: "miniFE", Scale: "test", Runs: 120, Seed: 2, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Once both take a slot, dispatch is held: the third job stays queued
	// until it is cancelled, however soon a slot frees.
	deadline := time.Now().Add(time.Minute)
	var m service.Metrics
	for m.RunningJobs < 2 {
		if m, err = d.c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the first two jobs never took both slots; last: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	release := d.srv.HoldDispatch()
	defer release()
	q, err := d.c.Submit(ctx, service.JobSpec{App: "MCB", Scale: "test", Runs: 5, Seed: 3, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Both slots busy, third job queued, per-job progress advancing, and
	// outcome counters accumulating.
	for {
		if m, err = d.c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		progressed := 0
		for _, jm := range m.Jobs {
			if jm.State == service.StateRunning && jm.Done > 0 {
				progressed++
			}
		}
		total := 0
		for _, n := range m.Outcomes {
			total += n
		}
		if m.RunningJobs == 2 && m.QueueDepth >= 1 && progressed == 2 && total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed 2 running + 1 queued with progress; last: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.JobSlots != 2 || m.WorkerPool != 2 {
		t.Errorf("metrics capacity = %d slots / %d workers, want 2/2", m.JobSlots, m.WorkerPool)
	}
	if m.WorkersBusy > m.WorkerPool {
		t.Errorf("workersBusy %d exceeds the pool %d: the gate is not shared", m.WorkersBusy, m.WorkerPool)
	}

	// Cancel the queued job, let the rest finish, and check terminal
	// accounting.
	if _, err := d.c.Cancel(ctx, q.ID); err != nil {
		t.Fatal(err)
	}
	release()
	waitDone(t, d.c, a.ID)
	waitDone(t, d.c, b.ID)
	if st := waitDone(t, d.c, q.ID); st.State != service.StateCancelled {
		t.Errorf("queued job settled as %s, want cancelled", st.State)
	}
	m, err = d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone != 2 || m.JobsCancelled != 1 {
		t.Errorf("terminal accounting: done %d cancelled %d, want 2/1", m.JobsDone, m.JobsCancelled)
	}
	if m.Outcomes["V"]+m.Outcomes["ONA"]+m.Outcomes["WO"]+m.Outcomes["PEX"]+m.Outcomes["C"] != 240 {
		t.Errorf("outcome counters %v do not sum to the 240 completed runs", m.Outcomes)
	}
}

// TestSchedulerPriority fills the single slot with a long job, then queues
// a low-priority and a high-priority job; the high-priority one must be
// dispatched first.
func TestSchedulerPriority(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1, WorkerPool: 1})
	ctx := context.Background()
	long, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 60, Seed: 9, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	low, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 10, SampleEvery: 64, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 11, SampleEvery: 64, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d.c, long.ID)
	lowSt := waitDone(t, d.c, low.ID)
	highSt := waitDone(t, d.c, high.ID)
	if !highSt.Started.Before(lowSt.Started) {
		t.Errorf("priority 5 job started %v, after priority 0 job at %v",
			highSt.Started, lowSt.Started)
	}
}

// TestCancelRunningJob cancels a job mid-flight and requires a terminal
// cancelled state with its journal retained on disk.
func TestCancelRunningJob(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1, WorkerPool: 1})
	ctx := context.Background()
	st, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 200, Seed: 4, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := d.c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress != nil && cur.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := d.c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, d.c, st.ID)
	if final.State != service.StateCancelled {
		t.Fatalf("cancelled job settled as %s", final.State)
	}
	if _, err := d.c.Result(ctx, st.ID); err == nil {
		t.Error("cancelled job served a result")
	}
}

// TestSubmitValidation: malformed specs are rejected with a 4xx the client
// surfaces as an APIError, and unknown jobs 404.
func TestSubmitValidation(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	ctx := context.Background()
	cases := []service.JobSpec{
		{App: "no-such-app", Runs: 5},
		{App: "LULESH", Runs: 0},
		{App: "LULESH", Runs: 5, Scale: "galactic"},
		{App: "LULESH", Runs: 5, Snapshots: -1},
	}
	for _, spec := range cases {
		if _, err := d.c.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v was accepted", spec)
		}
	}
	if _, err := d.c.Job(ctx, "999"); err == nil {
		t.Error("unknown job id returned a status")
	}
}

// TestSubmitRejectsInvalidConfig: a spec whose campaign configuration is
// invalid is refused at submission with ErrInvalidSpec, naming the field,
// instead of being queued and failing only when its run validates it.
func TestSubmitRejectsInvalidConfig(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	for _, tc := range []struct {
		field string
		spec  service.JobSpec
	}{
		{"HangFactor", service.JobSpec{App: "LULESH", Scale: "test", Runs: 5, HangFactor: -1}},
		{"MultiFaultLambda", service.JobSpec{App: "LULESH", Scale: "test", Runs: 5, MultiFaultLambda: -0.5}},
	} {
		_, err := d.srv.Submit(tc.spec)
		var fe *harness.FieldError
		if !errors.Is(err, service.ErrInvalidSpec) || !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Submit = %v, want ErrInvalidSpec naming the field", tc.field, err)
		}
	}
	if jobs := d.srv.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs queued, want none", len(jobs))
	}
}
