package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	faultprop "repro"
)

// sameResult compares two marshalled CampaignResults of one campaign
// configuration. The engine's promise is that they are byte-identical
// however the campaign was executed, and that is what the oracles check.
//
// They found one exception at the parent commit, which this benchmark may
// not fix: when a fault makes every rank fail the application's own sanity
// check, all ranks call MPI_Abort within a few cycles of each other; the
// first to do so raises the job's abort flag, and a peer the OS preempts
// just then sees the flag before it reaches its own abort. It is then a
// casualty, and the run's aggregates (ranks contaminated, total peak CML)
// leave it out. The classification is Crashed either way. On a quiet
// machine it is rare; under CPU contention LULESH at campaign scale,
// seed 2020, experiment 55 flips in one run in ten.
//
// So a difference confined to experiments that both sides classify as
// Crashed, with the same ID and plan, and an equal tally, is reported as
// a race (raced lists the IDs) and does not fail the run; anything else is
// an error. When it is fixed in the engine this fallback goes.
func sameResult(a, b []byte) (raced []int, err error) {
	if bytes.Equal(a, b) {
		return nil, nil
	}
	var ra, rb faultprop.CampaignResult
	if err := json.Unmarshal(a, &ra); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(ra.Tally, rb.Tally) {
		return nil, fmt.Errorf("tallies differ: %+v and %+v", ra.Tally, rb.Tally)
	}
	if len(ra.Experiments) != len(rb.Experiments) {
		return nil, fmt.Errorf("%d and %d experiment summaries", len(ra.Experiments), len(rb.Experiments))
	}
	for i, ea := range ra.Experiments {
		eb := rb.Experiments[i]
		if reflect.DeepEqual(ea, eb) {
			continue
		}
		crashed := ea.Outcome == faultprop.Crashed && eb.Outcome == faultprop.Crashed
		if !crashed || ea.ID != eb.ID || !reflect.DeepEqual(ea.Plan, eb.Plan) {
			return nil, fmt.Errorf("experiment %d differs", ea.ID)
		}
		raced = append(raced, ea.ID)
	}
	if len(raced) == 0 {
		return nil, fmt.Errorf("the aggregates differ though every experiment summary is equal")
	}
	return raced, nil
}

// compare checks two results of one campaign against each other: a
// difference fails the n operations the results cover, except the known
// race, which is noted.
func (r *report) compare(n int, what string, a, b []byte) {
	raced, err := sameResult(a, b)
	switch {
	case err != nil:
		r.mismatch(n, "%s: %v", what, err)
	case len(raced) > 0:
		r.note("scheduling_race: %s: crashed experiments %v differ in their peers' observations only (see oracle.go)", what, raced)
	}
}
