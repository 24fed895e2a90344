package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	faultprop "repro"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/xrand"
)

// defaultSeed is the seed the issue's stall survey was made at.
const defaultSeed = 2015

// verifiedSeeds are campaign seeds on which every window the benchmark
// runs is stall-free: no experiment leaves its ranks blocked in MPI until
// the 60 s wall-clock timeout (README.md has the survey). A stall is not
// a failure of the program, but one of them costs more wall than a whole
// run measures, so a workload seed picks among the verified seeds instead
// of being one. amg-tail, which exists to show that cost, pins its own
// seed. `go run ./bench --phase survey --seed N` checks a candidate.
var verifiedSeeds = [16]uint64{
	2015, 2019, 2020, 2030, 2031, 2033, 2034, 2035,
	2037, 2040, 2041, 2042, 2043, 2044, 2045, 2046,
}

// campaignSeed maps --seed onto a verified campaign seed: the default
// seed gives 2015, the next one the next entry, and so on cyclically.
func campaignSeed(seed uint64) uint64 {
	return verifiedSeeds[(seed-defaultSeed)%uint64(len(verifiedSeeds))]
}

// surveyTimeout is the mpi timeout of a surveyed experiment: far above a
// normal experiment's few milliseconds, far below the 60 s default.
const surveyTimeout = 700 * time.Millisecond

// survey runs every experiment of every window the workloads use at the
// given campaign seed on its own, with a short mpi timeout, and prints
// the ones that sat in it. The plans are the campaign's own: experiment
// id draws from xrand.At(seed, id) over the golden site counts.
func survey(seed uint64, sc scale, out io.Writer) error {
	type window struct {
		app  faultprop.App
		p    faultprop.Params
		runs int
	}
	lulesh := faultprop.AppByName("LULESH")
	windows := []window{{lulesh, lulesh.DefaultParams(), max(sc.luleshRuns, sc.oracleRuns)}}
	for _, app := range faultprop.Apps() {
		// study5-journal's window, or the ladder's where that is longer.
		runs := max(sc.studyRuns[app.Name()], sc.ladderRuns)
		switch app.Name() {
		case "LULESH":
			runs = max(runs, 4*sc.ladderRuns)
		case "miniFE":
			runs = max(runs, sc.adaptiveRuns)
		}
		windows = append(windows, window{app, app.TestParams(), runs})
	}
	clean := true
	for _, w := range windows {
		inst, err := instrumented(w.app, w.p)
		if err != nil {
			return err
		}
		golden := core.Run(inst, core.RunConfig{Ranks: w.p.Ranks, SampleEvery: sampleEvery})
		if golden.Err != nil {
			return golden.Err
		}
		sites := golden.SiteCounts()
		ids := make(chan int)
		var mu sync.Mutex
		var stalled []int
		var wg sync.WaitGroup
		for i := 0; i < runtime.NumCPU(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reuse := core.NewReuse(w.p.Ranks)
				for id := range ids {
					plan, err := inject.UniformSinglePlan(xrand.At(seed, uint64(id)), sites)
					if err != nil {
						continue // no rank has sites; the golden run would have failed
					}
					start := time.Now()
					core.Run(inst, core.RunConfig{
						Ranks: w.p.Ranks, SampleEvery: sampleEvery, CycleLimit: 4 * golden.Cycles,
						Plan: plan, Timeout: surveyTimeout, Reuse: reuse,
					})
					if time.Since(start) >= surveyTimeout*9/10 {
						mu.Lock()
						stalled = append(stalled, id)
						mu.Unlock()
						fmt.Fprintf(out, "stall %s ranks=%d seed=%d id=%d plan=%v\n", w.app.Name(), w.p.Ranks, seed, id, plan)
					}
				}
			}()
		}
		for id := 0; id < w.runs; id++ {
			ids <- id
		}
		close(ids)
		wg.Wait()
		sort.Ints(stalled)
		fmt.Fprintf(out, "%s ranks=%d seed=%d window=[0,%d) stalled=%v\n", w.app.Name(), w.p.Ranks, seed, w.runs, stalled)
		clean = clean && len(stalled) == 0
	}
	fmt.Fprintf(out, "seed %d stall-free on every window: %v\n", seed, clean)
	return nil
}
