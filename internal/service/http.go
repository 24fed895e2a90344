package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Handler returns the HTTP API handler, wrapped with request counting
// and structured request logs (reads at debug, mutations at info).
func (s *Server) Handler() http.Handler { return s.requestLogger(s.mux) }

// statusWriter records the response status for the request log. It
// implements http.Flusher unconditionally (forwarding when the wrapped
// writer supports it) because the streaming endpoint requires one.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) requestLogger(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.obs.countRequest(r.Method)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		attrs := []any{"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "elapsed", time.Since(start)}
		if t := obs.CleanTrace(r.Header.Get(obs.TraceHeader)); t != "" {
			attrs = append(attrs, "trace", t)
		}
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			s.log.Debug("request", attrs...)
		} else {
			s.log.Info("request", attrs...)
		}
	})
}

// routes installs the HTTP API. All paths live under /v1/ (the
// pre-versioning /api/v1/ compat redirects served their one promised
// release and are gone).
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Version())
	})
	s.mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
			return
		}
		st, err := s.SubmitTenant(spec, r.Header.Get(obs.TraceHeader), r.Header.Get(TenantHeader))
		if err != nil {
			// Taxonomy-driven rejection: transient pressure (full queue,
			// rate limit, quota) answers 429 + Retry-After — the request
			// is fine, try again shortly; permanent spec errors answer
			// 400 — retrying repeats the mistake. Both carry wire codes.
			if Classify(err) == CategoryTransient {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, err)
				return
			}
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	s.mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	s.mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Job(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if errors.Is(err, ErrJobNotFound) {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", cancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", cancel)
	// A stored document travels as the bytes that were stored: no decode,
	// no re-encode, so what a client reads is what finish marshalled.
	stored := func(load func(id string) ([]byte, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			data, err := load(r.PathValue("id"))
			if errors.Is(err, ErrJobNotFound) {
				httpError(w, http.StatusNotFound, err)
				return
			}
			if err != nil {
				httpError(w, http.StatusConflict, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
		}
	}
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", stored(s.Result))
	s.mux.HandleFunc("GET /v1/jobs/{id}/partial", stored(s.Partial))
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		// JSON by default (the typed client's contract); the Prometheus
		// text form — including the registry histograms — on request.
		if r.URL.Query().Get("format") == "prometheus" ||
			strings.Contains(r.Header.Get("Accept"), "text/plain") {
			s.handlePromMetrics(w, r)
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	s.mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Workers())
	})
	s.mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
			URL  string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decode worker: %w", err))
			return
		}
		info, err := s.RegisterWorker(req.Name, req.URL)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	s.mux.HandleFunc("DELETE /v1/workers/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.RemoveWorker(r.PathValue("name")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	archiveErr := func(w http.ResponseWriter, err error) {
		switch {
		case errors.Is(err, ErrArchiveDisabled), errors.Is(err, ErrNoArchiveEntry):
			httpError(w, http.StatusNotFound, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
	}
	s.mux.HandleFunc("GET /v1/archive", func(w http.ResponseWriter, r *http.Request) {
		list, err := s.ArchiveList()
		if err != nil {
			archiveErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, list)
	})
	s.mux.HandleFunc("GET /v1/archive/trends", func(w http.ResponseWriter, r *http.Request) {
		trends, err := s.ArchiveTrends()
		if err != nil {
			archiveErr(w, err)
			return
		}
		if trends == nil {
			trends = []AppTrend{}
		}
		writeJSON(w, http.StatusOK, trends)
	})
	s.mux.HandleFunc("GET /v1/archive/{fingerprint}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := s.ArchiveEntry(r.PathValue("fingerprint"))
		if err != nil {
			archiveErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	s.mux.HandleFunc("GET /v1/archive/{fingerprint}/sites", func(w http.ResponseWriter, r *http.Request) {
		sites, err := s.ArchiveSiteRanking(r.PathValue("fingerprint"))
		if err != nil {
			archiveErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sites)
	})
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
}

// handleStream serves a job's event stream as NDJSON (default) or SSE
// (Accept: text/event-stream). The stream is lossless for experiments: a
// watcher attaching at any point — mid-run, or after the job settled —
// first receives every journaled experiment, then live events. It ends
// with a terminal event; for a done job that event carries the tally and
// FPS, so a watcher needs no extra round trip for the headline numbers.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, ErrJobNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported"))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	// Subscribe before snapshotting so no event between the snapshot and
	// the subscription is lost.
	sub, unsubscribe := j.hub.subscribe()
	defer unsubscribe()
	trace := j.snapshot().Trace
	enc := json.NewEncoder(w)
	write := func(e Event) bool {
		// Synthetic events (journal replay, the terminal epilogue) are
		// built here rather than published through the hub, so stamp the
		// job's trace on them too — every streamed event correlates.
		if e.Trace == "" {
			e.Trace = trace
		}
		if sse {
			fmt.Fprintf(w, "data: ")
		}
		if err := enc.Encode(e); err != nil {
			return false
		}
		if sse {
			fmt.Fprintf(w, "\n")
		}
		return true
	}

	// A terminal state must be the stream's last event (watchers stop on
	// it), so for a settled job the opening status is withheld and only
	// the closing event reports it — after the history replays.
	st := j.snapshot()
	if !st.State.Terminal() {
		if !write(Event{Kind: EventState, Job: st.ID, State: st.State, Error: st.Error, Progress: st.Progress}) {
			return
		}
	}

	// The journal is flushed before each experiment event publishes, so
	// replaying it here (after subscribing, before forwarding) makes the
	// stream lossless: experiments completed before this watcher attached
	// come from disk, later ones arrive live, and the overlap dedups by
	// experiment ID. A finished job replays its entire history.
	seen := make(map[int]bool)
	if journal, err := s.openJournal(st); err == nil {
		err = harness.ReplayJournal(journal, func(ev harness.JournalEvent) bool {
			seen[ev.ID] = true
			return write(Event{Kind: EventExperiment, Job: st.ID, Experiment: &ExperimentEvent{
				ID:      ev.ID,
				Outcome: ev.Outcome.String(),
				Rank:    ev.InjRank,
				Cycle:   ev.InjCycle,
				Fired:   ev.Fired,
				MaxCML:  ev.MaxCML,
				Resumed: true,
			}})
		})
		journal.Close()
		if err != nil {
			s.log.Warn("journal replay cut short", "job", st.ID, "trace", st.Trace, "err", err)
		}
	}
	sentTerminal := false

	for {
		// The opening status and the replayed history leave in one flush,
		// then each live event in its own; the last write of the stream is
		// flushed by the handler's return.
		flusher.Flush()
		select {
		case e, ok := <-sub.ch:
			if !ok {
				// sub.truncated was written under the hub lock strictly
				// before the close we just observed, so reading it here is
				// safe. A truncated watcher lagged and was dropped: tell it
				// so explicitly — the job is still running, and the client
				// reconnects and recovers missed experiments from the
				// journal replay. Only a graceful close (job settled) gets
				// the terminal-state epilogue.
				if sub.truncated {
					st := j.snapshot()
					write(Event{Kind: EventTruncated, Job: st.ID, Trace: st.Trace})
					s.log.Warn("event stream truncated", "job", st.ID,
						"trace", st.Trace, "remote", r.RemoteAddr)
					return
				}
				// Hub closed (job settled): report the job's current state
				// as the final event unless a terminal event already went
				// out.
				if !sentTerminal {
					st := j.snapshot()
					final := Event{Kind: EventState, Job: st.ID, State: st.State, Error: st.Error}
					if st.State == StateDone {
						final.Kind = EventResult
						final.Tally = st.Tally
						final.FPS = st.FPS
					}
					write(final)
				}
				return
			}
			if e.Experiment != nil {
				if seen[e.Experiment.ID] {
					continue
				}
				seen[e.Experiment.ID] = true
			}
			if !write(e) {
				return
			}
			if e.State.Terminal() {
				sentTerminal = true
			}
		case <-r.Context().Done():
			return
		}
	}
}

// openJournal opens the experiment history a watcher of st replays: the
// job's own checkpoint journal or, for a cache hit, the journal of the
// archive entry it refers to, verified against the manifest on this read.
// A coordinated job has none, and neither has a hit of one.
func (s *Server) openJournal(st JobStatus) (io.ReadCloser, error) {
	if !st.CacheHit {
		return os.Open(s.store.JournalPath(st.ID))
	}
	data, err := s.entryFile(st, archive.JournalFile)
	return io.NopCloser(bytes.NewReader(data)), err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// httpError writes the JSON error body. When the cause chains to a
// sentinel with a wire code, the body carries it in "code" so clients can
// map the error back to the sentinel (errors.Is across the transport).
func httpError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if code := ErrorCode(err); code != "" {
		body["code"] = code
	}
	writeJSON(w, status, body)
}
