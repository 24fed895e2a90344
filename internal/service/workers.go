package service

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// WorkerInfo is the client-visible record of one registered peer worker —
// another faultpropd instance this daemon can dispatch shard jobs to.
type WorkerInfo struct {
	// Name identifies the worker (defaults to its URL host:port).
	Name string `json:"name"`
	// URL is the worker's API base, e.g. "http://10.0.0.7:7207".
	URL        string    `json:"url"`
	Registered time.Time `json:"registered"`
	// LastSeen is the time of the last successful heartbeat (or the
	// registration time before the first one).
	LastSeen time.Time `json:"lastSeen"`
	// Alive reports whether the last heartbeat succeeded. Dead workers
	// receive no new shards; their in-flight shards are re-dispatched.
	Alive bool `json:"alive"`
	// Active counts shard jobs this daemon currently has in flight on the
	// worker.
	Active int `json:"active"`

	// peer is the client bound to URL through which this daemon dispatches
	// to the worker (nil in a WorkerInfo decoded from the wire).
	peer *Client
}

// registry tracks peer workers and their liveness. Liveness is probed
// from the coordinator side: a periodic GET /v1/version per worker, so
// workers need no coordinator-specific behavior to participate — any
// reachable faultpropd is a valid worker.
type registry struct {
	mu      sync.Mutex
	workers map[string]*WorkerInfo
}

func newRegistry() *registry {
	return &registry{workers: make(map[string]*WorkerInfo)}
}

// add registers (or re-registers) a worker. A re-registration under the
// same name updates the URL and revives the worker.
func (r *registry) add(name, rawURL string) (WorkerInfo, error) {
	peer, err := NewClient(rawURL)
	if err != nil || peer.host == "" {
		return WorkerInfo{}, fmt.Errorf("%w: worker url %q", ErrInvalidSpec, rawURL)
	}
	if name == "" {
		name = peer.host
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now().UTC()
	if w, ok := r.workers[name]; ok {
		w.URL, w.peer = peer.base, peer
		w.Alive = true
		w.LastSeen = now
		return *w, nil
	}
	w := &WorkerInfo{Name: name, URL: peer.base, Registered: now, LastSeen: now, Alive: true, peer: peer}
	r.workers[name] = w
	return *w, nil
}

// remove deregisters a worker.
func (r *registry) remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[name]; !ok {
		return ErrWorkerNotFound
	}
	delete(r.workers, name)
	return nil
}

// list returns all workers, sorted by name.
func (r *registry) list() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	slices.SortFunc(out, func(a, b WorkerInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// markAlive records a heartbeat outcome. It reports whether the worker's
// liveness changed, so callers can log transitions without spamming one
// line per probe.
func (r *registry) markAlive(name string, alive bool) (changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[name]; ok {
		changed = w.Alive != alive
		w.Alive = alive
		if alive {
			w.LastSeen = time.Now().UTC()
		}
	}
	return changed
}

// acquire picks the alive worker with the fewest in-flight shards and
// increments its count; ok is false when no worker is alive.
func (r *registry) acquire() (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *WorkerInfo
	for _, w := range r.workers {
		if !w.Alive {
			continue
		}
		if best == nil || w.Active < best.Active ||
			(w.Active == best.Active && w.Name < best.Name) {
			best = w
		}
	}
	if best == nil {
		return WorkerInfo{}, false
	}
	best.Active++
	return *best, true
}

// release decrements a worker's in-flight count.
func (r *registry) release(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[name]; ok && w.Active > 0 {
		w.Active--
	}
}

// heartbeatLoop probes every registered worker each interval until ctx is
// done. A probe failure (one attempt, see Client.ping) marks the worker
// dead immediately — the dispatch loop stops assigning to it, and
// re-dispatches each of its shards when that shard's stream breaks or goes
// silent and its own liveness probe fails; a later success revives it.
func (s *Server) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, w := range s.registry.list() {
			pctx, cancel := context.WithTimeout(ctx, s.cfg.Heartbeat)
			err := w.peer.ping(pctx)
			cancel()
			if s.registry.markAlive(w.Name, err == nil) {
				if err == nil {
					s.log.Info("worker revived", "worker", w.Name, "url", w.URL)
				} else {
					s.log.Warn("worker dead", "worker", w.Name, "url", w.URL, "err", err)
				}
			}
		}
	}
}
