package harness

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/classify"
)

// Progress collects live metrics from a running campaign: completed-run
// counts per outcome class, throughput, ETA, and worker utilization. Wire
// one into CampaignConfig.Progress and either poll Snapshot or start a
// Ticker that prints to stderr on an interval. All methods are safe for
// concurrent use and safe on a nil receiver, so the campaign engine calls
// them unconditionally.
type Progress struct {
	mu       sync.Mutex
	total    int
	workers  int
	started  time.Time
	resumed  int
	done     int
	running  int
	busy     time.Duration
	outcomes [classify.NumOutcomes]int
	exited   int
	ghosts   int
}

// Snapshot is a point-in-time view of campaign progress.
type Snapshot struct {
	// Total is the campaign's configured run count; Done counts completed
	// experiments including the Resumed ones replayed from a checkpoint.
	Total   int
	Done    int
	Resumed int
	// Running counts experiments currently executing on workers.
	Running int
	// Elapsed is wall time since the campaign's execution phase started.
	Elapsed time.Duration
	// RunsPerSec is the throughput of newly executed (non-resumed) runs.
	RunsPerSec float64
	// ETA estimates the remaining wall time at the current throughput
	// (zero until a rate is established).
	ETA time.Duration
	// Outcomes holds per-class running counts, indexed by classify.Outcome.
	Outcomes [classify.NumOutcomes]int
	// Utilization is completed busy worker-time over elapsed wall-time
	// times workers, in [0, 1].
	Utilization float64
	// Exited counts executed experiments that ended at a golden-equal cut
	// instead of executing the golden tail.
	Exited int `json:",omitempty"`
	// Ghosts counts the ranks that ended replaying golden traffic. It is
	// local telemetry, not carried on the wire.
	Ghosts int `json:"-"`
}

// begin (re)arms the Progress for one campaign. A Progress may be
// reused across sequential campaigns or shard runs, so every counter
// from the previous campaign is zeroed here — carrying done/resumed/
// outcome counts over would double-count and corrupt throughput, ETA,
// and utilization.
func (p *Progress) begin(total, workers int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
	p.workers = workers
	p.started = time.Now()
	p.resumed = 0
	p.done = 0
	p.running = 0
	p.busy = 0
	p.outcomes = [classify.NumOutcomes]int{}
	p.exited = 0
	p.ghosts = 0
}

func (p *Progress) noteResumed(n int) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.resumed += n
	p.done += n
}

func (p *Progress) noteStart() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running++
}

func (p *Progress) noteDone(o classify.Outcome, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	p.done++
	p.busy += d
	if o >= 0 && int(o) < classify.NumOutcomes {
		p.outcomes[o]++
	}
}

// noteExit counts, for an experiment already noted done, whether it ended
// at a golden-equal cut and how many of its ranks ended as ghosts.
func (p *Progress) noteExit(exited bool, ghosts int) {
	if p == nil || !exited && ghosts == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if exited {
		p.exited++
	}
	p.ghosts += ghosts
}

// Snapshot returns the current metrics.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Total:    p.total,
		Done:     p.done,
		Resumed:  p.resumed,
		Running:  p.running,
		Outcomes: p.outcomes,
		Exited:   p.exited,
		Ghosts:   p.ghosts,
	}
	if p.started.IsZero() {
		return s
	}
	s.Elapsed = time.Since(p.started)
	executed := p.done - p.resumed
	if s.Elapsed > 0 && executed > 0 {
		s.RunsPerSec = float64(executed) / s.Elapsed.Seconds()
		if remaining := p.total - p.done; remaining > 0 {
			s.ETA = time.Duration(float64(remaining) / s.RunsPerSec * float64(time.Second))
		}
	}
	if s.Elapsed > 0 && p.workers > 0 {
		s.Utilization = p.busy.Seconds() / (s.Elapsed.Seconds() * float64(p.workers))
		if s.Utilization > 1 {
			s.Utilization = 1
		}
	}
	return s
}

// String renders the snapshot as a one-line status report.
func (s Snapshot) String() string {
	var sb strings.Builder
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	fmt.Fprintf(&sb, "%d/%d (%.1f%%)", s.Done, s.Total, pct)
	if s.Resumed > 0 {
		fmt.Fprintf(&sb, " [%d resumed]", s.Resumed)
	}
	fmt.Fprintf(&sb, " %.1f runs/s", s.RunsPerSec)
	if s.ETA > 0 {
		fmt.Fprintf(&sb, " eta %s", s.ETA.Round(time.Second))
	}
	fmt.Fprintf(&sb, " util %.0f%%", 100*s.Utilization)
	for o := classify.Outcome(0); int(o) < classify.NumOutcomes; o++ {
		if s.Outcomes[o] > 0 {
			fmt.Fprintf(&sb, " %s:%d", o, s.Outcomes[o])
		}
	}
	return sb.String()
}

// Ticker prints a snapshot line to w every interval until the returned stop
// function is called. A nil receiver or non-positive interval yields a
// no-op stop function.
func (p *Progress) Ticker(w io.Writer, every time.Duration) (stop func()) {
	if p == nil || every <= 0 {
		return func() {}
	}
	t := time.NewTicker(every)
	quit := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, p.Snapshot())
			case <-quit:
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			t.Stop()
			close(quit)
		})
	}
}
