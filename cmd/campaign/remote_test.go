package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/service"
)

// stdout runs fn and returns what it printed to os.Stdout.
func stdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	var out bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&out, r)
		close(done)
	}()
	fn()
	w.Close()
	<-done
	return out.String()
}

// serve starts a daemon over dir and archive with a one-minute progress
// interval, and returns its URL and a func that drains it.
func serve(t *testing.T, dir, archive string) (string, func()) {
	t.Helper()
	srv, err := service.New(service.Config{Dir: dir, ArchiveDir: archive, ProgressEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return hs.URL, func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}
}

// TestRemoteHeaderFromTerminalStatus: a -remote job heads its results with
// the counts of its terminal status, so a job that settles before its
// daemon publishes a single progress event — here a 50-run job seeded
// with the 25 runs the daemon archived, under a one-minute progress
// interval — still reports its rate and what it resumed. The done status
// keeps those counts across a restart of the daemon.
func TestRemoteHeaderFromTerminalStatus(t *testing.T) {
	dir, archive := t.TempDir(), t.TempDir()
	addr, stop := serve(t, dir, archive)
	selected := []apps.App{apps.ByName("LULESH")}
	o := options{runs: 25, seed: 7, scale: "test", sample: 256, snapshots: 64}
	var runErr error
	out := stdout(t, func() {
		if _, runErr = runRemote(context.Background(), addr, " via test", selected, o); runErr != nil {
			return
		}
		o.runs = 50
		_, runErr = runRemote(context.Background(), addr, " via test", selected, o)
	})
	stop()
	if runErr != nil {
		t.Fatal(runErr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %q, want two header lines", out)
	}
	if h := lines[1]; !strings.HasPrefix(h, "# LULESH: 50 runs in ") || !strings.Contains(h, " runs/s, ") || !strings.HasSuffix(h, ", 25 resumed)") {
		t.Errorf("the seeded job's header reads %q, want its rate and \", 25 resumed\"", h)
	}

	addr, stop = serve(t, dir, archive)
	defer stop()
	c, err := service.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seeded := 0
	for _, st := range jobs {
		if st.Spec.Runs != 50 {
			continue
		}
		seeded++
		if p := st.Progress; st.State != service.StateDone || p == nil || p.Resumed != 25 || p.RunsPerSec <= 0 {
			t.Errorf("after a restart the seeded job reads %s with progress %+v, want done with 25 resumed and its rate", st.State, p)
		}
	}
	if seeded != 1 {
		t.Errorf("after a restart the daemon lists %d 50-run jobs, want 1", seeded)
	}
}
