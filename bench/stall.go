package main

import (
	"sort"
	"time"
)

// stallGap is the experiment duration from which an experiment counts as
// stalled. A normal experiment takes 0.3 to 5 ms; one whose ranks block
// in MPI at mismatched call sites takes the 60 s wall-clock timeout.
const stallGap = time.Second

// completion is one executed experiment as OnExperiment observed it: its
// ID and the time since the campaign was called.
type completion struct {
	id int
	at time.Duration
}

// stalledIDs returns the IDs of the experiments that ran for at least
// stallGap, judged from completion times alone (the campaign reports
// nothing else without its tracing hooks). A fixed-N campaign hands IDs
// to its workers in ascending order, each worker taking the next ID when
// it finishes one, so an experiment started when the earliest of the
// experiments then running completed. With one worker that is the gap
// between successive completions. The first `workers` experiments start
// at `start`, the end of the campaign's set-up.
func stalledIDs(comps []completion, workers int, start time.Duration) []int {
	byID := append([]completion(nil), comps...)
	sort.Slice(byID, func(a, b int) bool { return byID[a].id < byID[b].id })
	running := make([]time.Duration, 0, workers)
	var out []int
	for _, c := range byID {
		began := start
		if len(running) == workers {
			first := 0
			for i, at := range running {
				if at < running[first] {
					first = i
				}
			}
			began = running[first]
			running[first] = c.at
		} else {
			running = append(running, c.at)
		}
		if c.at-began >= stallGap {
			out = append(out, c.id)
		}
	}
	return out
}
