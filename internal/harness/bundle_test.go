package harness

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/apps"
)

// TestBundleReuseAcrossPrograms was the gate for worker bundles recycled
// process-wide, from one program's campaign into another's. Workers now
// allocate their bundles per run (a fresh one is a few KiB a rank), so no
// bundle crosses programs any more; what still does is the rest of the
// process-wide state — the pack registry, the decoded-program cache, the
// snapshot generation counter. The gate keeps its byte-identity half for
// that: for every ordered pair (A, B) of the five applications, campaign B
// run right after campaign A must marshal to the very JSON B gave in a
// process with no packs, without snapshots and with them, on one worker and
// on two. A follows the previous pair's B the same way, and is checked too.
func TestBundleReuseAcrossPrograms(t *testing.T) {
	t.Cleanup(resetPacks)
	run := func(app apps.App, snapshots, workers int) string {
		t.Helper()
		res, err := RunCampaign(CampaignConfig{
			App: app, Params: app.TestParams(),
			Sampling:  Sampling{Runs: 8, Seed: 2015},
			Execution: Execution{SampleEvery: 64, Workers: workers, Snapshots: snapshots},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, snapshots := range []int{0, 8} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("snapshots%d-workers%d", snapshots, workers), func(t *testing.T) {
				alone := make(map[string]string)
				for _, app := range apps.All() {
					resetPacks()
					alone[app.Name()] = run(app, snapshots, workers)
				}
				for _, a := range apps.All() {
					for _, b := range apps.All() {
						for _, app := range []apps.App{a, b} {
							if got := run(app, snapshots, workers); got != alone[app.Name()] {
								t.Errorf("%s then %s: %s differs from %s run alone",
									a.Name(), b.Name(), app.Name(), app.Name())
							}
						}
					}
				}
			})
		}
	}
}
