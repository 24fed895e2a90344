package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/inject"
	"repro/internal/transform"
)

// TestRunIdenticalOnAnyReuse: a run's observables do not depend on the
// bundle it is handed — none, one of the job's rank count (fresh, then
// recycled), or one sized for another rank count, which the run must leave
// untouched and replace with a private bundle — nor on whether it is a Run
// or a RunResumed from no snapshot, on a 1- and a 4-rank application. The bundle-less runs execute concurrently so -race sees that
// private bundles share nothing.
// wholeOutcome is every field of o in comparable form: outputs as bit
// patterns, since a corrupted run may output NaN.
func wholeOutcome(o RunOutcome) [2]any {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	outs := [][]uint64{bits(o.Outputs)}
	o.Outputs, o.Ranks = nil, slices.Clone(o.Ranks)
	for r := range o.Ranks {
		outs = append(outs, bits(o.Ranks[r].Outputs))
		o.Ranks[r].Outputs = nil
	}
	return [2]any{o, outs}
}

func TestRunIdenticalOnAnyReuse(t *testing.T) {
	app := apps.NewHydro()
	for _, ranks := range []int{1, 4} {
		p := app.TestParams()
		p.Ranks = ranks
		prog, err := app.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := transform.Instrument(prog, transform.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		golden := Run(inst, RunConfig{Ranks: ranks, SampleEvery: 16})
		if golden.Err != nil {
			t.Fatal(golden.Err)
		}
		// The first planned flip, scanning the last rank's site space, that
		// reaches memory: a vanished fault would compare little.
		last := ranks - 1
		cfg := RunConfig{Ranks: ranks, SampleEvery: 16, CycleLimit: golden.Cycles * 4}
		for site := golden.Ranks[last].Sites / 2; ; site++ {
			if site == golden.Ranks[last].Sites {
				t.Fatalf("%d ranks: no fault in the second half of rank %d contaminates memory", ranks, last)
			}
			cfg.Plan = inject.Plan{Faults: []inject.Fault{{Rank: last, Site: site, Bit: 52}}}
			if Run(inst, cfg).Ever {
				break
			}
		}

		// The harness runs every experiment through RunResumed; with no
		// snapshot it is Run, in every field of the outcome.
		for _, c := range []RunConfig{{Ranks: ranks, SampleEvery: 16}, cfg} {
			if got, want := wholeOutcome(RunResumed(inst, c, nil)), wholeOutcome(Run(inst, c)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d ranks, plan %v: RunResumed from no snapshot differs from Run\n got: %+v\nwant: %+v",
					ranks, c.Plan.Faults, got, want)
			}
		}

		bare := make([]map[string]any, 3)
		var wg sync.WaitGroup
		for i := range bare {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				bare[i] = condense(Run(inst, cfg))
			}(i)
		}
		wg.Wait()
		want := bare[0]
		for i, got := range bare[1:] {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d ranks: bundle-less run %d diverged from run 0", ranks, i+1)
			}
		}

		matching, other := NewReuse(ranks), NewReuse(ranks+1)
		for name, ru := range map[string]*Reuse{"matching": matching, "other rank count": other} {
			rcfg := cfg
			rcfg.Reuse = ru
			for i := 0; i < 2; i++ {
				if got := condense(Run(inst, rcfg)); !reflect.DeepEqual(got, want) {
					t.Errorf("%d ranks, %s bundle, run %d: diverged from the bundle-less run\n got: %v\nwant: %v",
						ranks, name, i, got, want)
				}
			}
		}
		if matching.job == nil {
			t.Errorf("%d ranks: a matching bundle was not used", ranks)
		}
		if other.job != nil || other.regionsProg != nil {
			t.Errorf("%d ranks: a bundle of another rank count was written to", ranks)
		}
	}
}
